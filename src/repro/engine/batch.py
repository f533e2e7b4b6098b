"""Batch-stepping cascade: whole steady-state stretches in one kernel callback.

The classic kernel executes one Python callback per simulated event; a single
source tick costs two heap round-trips per hop (delivery, service completion)
plus the deliver -> queue -> ``_maybe_process`` -> ``_complete_data`` call
chain.  At steady state none of that machinery can change the outcome: every
executor is initialized and running, no control wave is in flight, and the
only cancellable timers pending are the source's own emit tick and timers
that bound the stretch.

The :class:`BatchStepper` exploits this.  When the emit timer fires and the
runtime is *quiescent* (checked exhaustively below), the whole stretch of
simulated time up to the next cancellable timer (exclusive) or the ``run``
bound (inclusive) is swept inside one callback with per-task-instance numpy
arrays: keyed per-channel jitter blocks, FIFO bumps and Lindley service
recurrences on the real executor objects, and whole-array event-log appends.
Data work already in flight on the kernel heap (pending deliveries,
in-service completions, queued arrivals) is adopted into the sweep.  Work that
lands at or past the horizon is *spilled* back onto the real kernel heap in
classic form (``runtime.deliver`` / ``Executor._complete_data``), and
executor state is left exactly as the classic kernel would have it at the
horizon, so processing continues seamlessly -- a monitor sampling at the
horizon observes identical ``processed_count`` / ``busy_time_s`` / log
contents.

Correctness requires the keyed per-channel jitter streams
(``RuntimeConfig.keyed_network_jitter``, implied by ``batch_stepping``):
with the shared stream, collapsing the cross-channel interleaving would
permute every jitter draw.  With keyed streams each channel consumes its own
sequence, so the sweep draws the exact values the classic kernel draws in
keyed mode.  The contract: simulated times, logged streams and executor
counters match the classic keyed kernel; only the event-id assignment order
differs (ids are drawn in sweep order).  Where the sweep declines -- a
dataflow that is not vector-capable, a runtime that is not quiescent, or
in-flight work it does not model -- the tick takes the classic per-event
path, so that stretch is the classic keyed run exactly.  The equivalence
tests in ``tests/test_batch_equivalence.py`` and
``tests/test_acked_batch_equivalence.py`` pin both.

Batch stepping stays engaged when data acking is on.  The sweep replays the
acker XOR stream symbolically: a loss-free steady-state stretch anchors and
acks every event of a tuple tree inside one sweep, so the per-tree
``bitwise_xor`` folds cancel to zero by construction and whole trees resolve
without ever materializing a :class:`~repro.reliability.acker.PendingTree`;
only events that cross the horizon fold real ids into the bulk acker APIs
(``register_block`` / ``anchor_batch`` / ``ack_batch`` / ``settle_batch``).
The cascade horizon is clamped to ``now + ack timeout`` so no tree a sweep
registers can time out mid-stretch, and the cascade declines whenever the
runtime is not quiescent (control waves, backlogs, replays in flight,
restarts, captures, multiple sources) or the source is throttled, falling
back to the classic per-event path for that tick -- loss/replay windows,
fault injection and migrations always take the reference path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as _np

from repro.dataflow.event import (
    Event,
    EventKind,
    next_event_id,
    recycle_event,
    reserve_event_ids,
)
from repro.dataflow.grouping import Grouping, field_key_of, stable_field_index
from repro.dataflow.task import TaskKind
from repro.engine.executor import Executor, ExecutorStatus, SinkExecutor, SourceExecutor
from repro.sim.rng import keyed_value_block

_RUNNING = ExecutorStatus.RUNNING
_DATA_KIND = EventKind.DATA

# Unbound kernel-callback identities the vectorized tier knows how to ingest
# when it adopts in-flight work (see _cascade_vectorized).
_PROC_COMPLETE = Executor._complete_data
_SINK_COMPLETE = SinkExecutor._complete_data


class BatchStepper:
    """Runs quiescent steady-state stretches inline (see module docstring)."""

    def __init__(self, runtime: "TopologyRuntime") -> None:
        self.runtime = runtime
        #: Number of cascades executed (diagnostic).
        self.cascades = 0
        #: Simulated events materialized inline instead of via the kernel.
        self.inline_events = 0
        #: Cascades swept with the vectorized (numpy) tier (diagnostic).
        self.vector_cascades = 0
        self._vector_capable_cache: Optional[bool] = None

    # ------------------------------------------------------- vectorized sweep
    def _vector_capable(self) -> bool:
        """Whether the dataflow admits the array sweep at all (cached).

        The sweep replaces per-event ``task.logic`` calls with bulk counter
        updates, which is only sound for the default 1:1 dummy logic (tagged
        by :func:`repro.dataflow.task.default_logic`).  Duplicate task-pair
        edges would interleave their per-channel jitter draws per event,
        which the per-edge arrays cannot reproduce, so they also keep the
        run on the classic path.  Topology structure and task logic are fixed
        for the runtime's lifetime (rescales change parallelism only), hence
        cached.
        """
        cached = self._vector_capable_cache
        if cached is None:
            cached = True
            dataflow = self.runtime.dataflow
            for task in dataflow.tasks:
                if (
                    task.kind is TaskKind.PROCESS
                    and getattr(task.logic, "default_selectivity", None) != 1
                ):
                    cached = False
                    break
                dsts = [edge.dst for edge in dataflow.out_edges(task.name)]
                if len(dsts) != len(set(dsts)):
                    cached = False
                    break
            self._vector_capable_cache = cached
        return cached

    # ------------------------------------------------------------- quiescence
    def _quiescent(self, source: SourceExecutor) -> bool:
        """Whether the cascade may replace per-event processing right now.

        Every condition corresponds to a piece of engine machinery whose
        behaviour the sweep does not replicate: if any is live, the tick
        falls back to the classic path (and may cascade again later).
        In-flight data work -- pending deliveries, in-service completions,
        queued arrivals -- does not break quiescence: the sweep adopts it
        (or declines on what it does not model, see
        :meth:`_cascade_vectorized`).  That is what lets cascades re-engage
        mid-stream, where the pipeline is never empty between two source
        ticks.
        """
        runtime = self.runtime
        if runtime.sim.run_until is None:
            return False  # unbounded run: no horizon to materialize up to
        sources = runtime.source_executors
        if len(sources) != 1 or sources[0] is not source:
            return False
        if source.paused or source.status is not _RUNNING:
            return False
        if source._backlog or source._replay_queue:
            return False
        if runtime._deferred_deliveries:
            return False
        for executor in runtime.executors.values():
            if executor.status is not _RUNNING or not executor.initialized:
                return False
            if executor.capture_mode or executor.pre_init_buffer:
                return False
        return True

    # ---------------------------------------------------------------- cascade
    def try_cascade(self, source: SourceExecutor) -> bool:
        """Handle the source tick that just fired, if quiescence allows.

        Returns True when the cascade consumed the tick (emissions performed,
        downstream work either completed inline or spilled, and the next emit
        timer armed); False to fall back to the classic per-tick path.
        """
        if not self._vector_capable():
            return False
        if not self._quiescent(source):
            return False
        runtime = self.runtime
        sim = runtime.sim
        limit = sim.run_until
        horizon = sim.next_timer_time()
        now0 = sim.now
        if horizon is not None and horizon <= now0:
            return False  # another timer is due immediately; do not pass it
        if now0 > limit:  # pragma: no cover - defensive; run() never does this
            return False
        acked = runtime.ack_data_events
        if acked:
            # Any tree a cascade registers schedules its timeout at
            # ``tick + timeout >= now0 + timeout``; clamping the horizon there
            # guarantees no timer the cascade itself creates can fire inside
            # the stretch (already-pending trees bound ``horizon`` through
            # their live timeout timers).
            timeout_at = now0 + runtime.acker.timeout_s
            if horizon is None or timeout_at < horizon:
                horizon = timeout_at

        return self._cascade_vectorized(source, now0, limit, horizon, acked)

    # ------------------------------------------------------- vectorized tier
    def _cascade_vectorized(
        self,
        source: SourceExecutor,
        now0: float,
        limit: float,
        horizon: Optional[float],
        acked: bool,
    ) -> bool:
        """Sweep the whole stretch with per-task-instance arrays (numpy).

        Instead of replaying individual kernel entries, each task instance is
        processed once with struct-of-arrays arithmetic: per-channel jitter
        draws come from :func:`keyed_value_block` (bit-identical to the scalar
        stream), FIFO bumps and Lindley service recurrences take their exact
        vectorized form when the stretch has no bump/queueing (the common
        case, pre-checked) and an exact scalar scan otherwise.  All simulated
        times, log record streams and executor counters are bit-identical to
        the classic keyed kernel; only the *event-id assignment order*
        differs (ids are drawn in sweep order: roots first, then spilled
        events, then receipts).  Work crossing the horizon is reconstructed
        into classic kernel state: the deliveries and completions the classic
        kernel would have pending at the horizon.

        Pending kernel deliveries, in-service completions and queued arrivals
        are adopted into the sweep (their times are already fixed, so the
        merge stays exact), which is what lets cascades re-engage between
        control-plane windows when the pipeline is never fully drained.

        Under data acking (``acked``) the sweep additionally replays the acker
        XOR stream: events that are both anchored and acked inside the stretch
        cancel symbolically (per-root counters, no id ever drawn), events that
        cross the horizon fold real ids into per-root residuals, and the
        whole stream commits through the acker's bulk APIs — trees that live
        and die inside the sweep never materialize a ``PendingTree`` at all.
        The emission schedule is capped at the spout-pending headroom
        (pending only shrinks mid-stretch, so the cap is provably
        throttle-free) and adopted in-flight events keep their original
        objects/ids so their trees' hashes stay exact.

        Returns False (nothing mutated) when an executor subclass it does not
        model is present, or when in-flight work includes anything beyond
        plain data events of live trees (control waves, sink batches,
        state-store latencies, replayed events, events of timed-out trees);
        :meth:`try_cascade` then falls back to the classic path.
        """
        np = _np
        runtime = self.runtime
        executors = runtime.executors
        for executor in executors.values():
            kind = type(executor)
            if kind is not Executor and kind is not SinkExecutor and kind is not SourceExecutor:
                return False
        acker = runtime.acker
        if acked:
            headroom = source.pending_headroom()
            if headroom == 0:
                return False  # throttled tick: the classic path handles it exactly
        else:
            headroom = None
        sim = runtime.sim
        router = runtime.router

        # ---- In-flight scan (pure, nothing mutated until it fully succeeds).
        # The kernel heap may hold pending data work; classify every fast-path
        # entry, declining on anything the sweep does not model (control
        # handling, capture drains, sink batch completions, state-store
        # latencies, acked/replayed events).
        inflight: List[Tuple[float, str, Event, str]] = []
        busy_completions: Dict[Any, Tuple[float, Event]] = {}
        pending_entries = sim.fast_entries()
        if pending_entries:
            deliver_cb = runtime.deliver
            batch_cb = router._deliver_batch
            for entry in pending_entries:
                cb = entry[2]
                func = getattr(cb, "__func__", None)
                if func is _PROC_COMPLETE or func is _SINK_COMPLETE:
                    executor = cb.__self__
                    event = entry[3][0]
                    if (
                        event.kind is not _DATA_KIND
                        or event.anchored is not acked
                        or event.replay_count
                        or not executor._busy
                        or executor in busy_completions
                    ):
                        return False
                    busy_completions[executor] = (entry[0], event)
                elif cb == deliver_cb:
                    target, event, sender_id = entry[3]
                    if (
                        event.kind is not _DATA_KIND
                        or event.anchored is not acked
                        or event.replay_count
                        or target not in executors
                        or type(executors[target]) is SourceExecutor
                    ):
                        return False
                    inflight.append((entry[0], target, event, sender_id))
                elif cb == batch_cb:
                    target, sender_id, pairs, index = entry[3]
                    if target not in executors or type(executors[target]) is SourceExecutor:
                        return False
                    for when, event in pairs[index:]:
                        if (
                            event.kind is not _DATA_KIND
                            or event.anchored is not acked
                            or event.replay_count
                        ):
                            return False
                        inflight.append((when, target, event, sender_id))
                else:
                    return False
            for executor in executors.values():
                if executor in busy_completions:
                    for event, _sender in executor.input_queue:
                        if (
                            event.kind is not _DATA_KIND
                            or event.anchored is not acked
                            or event.replay_count
                        ):
                            return False
                elif executor._busy or executor.input_queue:
                    return False  # busy/queued without a modelled completion

        dataflow = runtime.dataflow
        hor = float("inf") if horizon is None else horizon
        if hor <= limit:
            cut_value, cut_side = hor, "left"  # inline iff time < horizon
        else:
            cut_value, cut_side = limit, "right"  # inline iff time <= limit
        side_right = cut_side == "right"

        # ---- Phase A: the emission schedule (exact scalar recurrence).
        profile = source.profile
        rate_at = profile.rate_at if profile is not None else None
        tick_times: List[float] = []
        tick = now0
        idle_from: Optional[float] = None
        next_tick: Optional[float] = None
        while True:
            tick_times.append(tick)
            rate = float(rate_at(tick)) if rate_at is not None else source.rate
            if rate <= 0:
                idle_from = tick
                break
            source.rate = rate
            after = tick + 1.0 / rate
            if (
                after <= limit
                and after < hor
                and (headroom is None or len(tick_times) < headroom)
            ):
                # The headroom cap is pessimistic but exact: pending can only
                # shrink as trees complete mid-stretch, so a stretch emitting
                # at most ``limit - pending`` roots never reaches a tick the
                # classic path would have throttled.
                tick = after
            else:
                next_tick = after
                break

        n_roots = len(tick_times)
        log = runtime.log
        source_name = source.task.name
        seqno = source._sequence
        payloads: List[Any] = [
            source._payload(s) for s in range(seqno + 1, seqno + n_roots + 1)
        ]
        source._sequence = seqno + n_roots
        rid0 = reserve_event_ids(n_roots)
        root_ids: List[int] = list(range(rid0, rid0 + n_roots))
        # Bulk append (record_source_emit with replay_count=0, at_time=tick):
        # fresh root ids are never already in the first-emit map.  On the
        # columnar backend this is a pure array copy — no per-event record.
        log.extend_emits(tick_times, root_ids, source_name)
        source.emitted_count += n_roots
        inline_count = n_roots
        #: Per-root original emission time.  For the roots emitted by this
        #: cascade it equals the tick time; adopted in-flight events append
        #: their own ``root_emitted_at`` (they descend from earlier roots).
        root_emitted: List[float] = list(tick_times)

        def adopt(event: Event) -> int:
            """Register an in-flight event as an extra sweep root index."""
            idx = len(payloads)
            payloads.append(event.payload)
            root_ids.append(event.root_id)
            root_emitted.append(event.root_emitted_at)
            return idx

        #: Acked-mode bookkeeping.  Events wholly inside the sweep never draw
        #: an id: their anchor/ack XOR contributions cancel by construction,
        #: so only per-root-index *counts* are kept (``anch_counts`` /
        #: ``ack_counts``, allocated after ingestion fixes the index space).
        #: Real ids appear exactly where the classic path would leave them
        #: observable: spilled events fold into ``resid`` (new roots, becomes
        #: the registered tree's hash) or ``anchor_pairs`` (pre-existing
        #: trees); adopted in-flight events keep their original ids —
        #: ``ack_pairs`` removes them from their trees when they complete
        #: in-sweep, ``adopted_by_id`` hands the original object back if they
        #: spill again.
        if acked:
            adopted_by_id: Dict[int, Event] = {}
            anchor_pairs: List[Tuple[int, int]] = []
            ack_pairs: List[Tuple[int, int]] = []
        else:
            adopted_by_id = None
            anchor_pairs = ack_pairs = None
        anch_counts = ack_counts = resid = spill_counts = None

        # ---- Phase B: route/serve every task instance in topological order.
        plans = router._route_plans
        channel_base = router._channel_base
        keyed_jitter = router._keyed_jitter
        last_delivery = router._last_delivery
        shuffle_counters = router._shuffle_counters
        network = router._network
        jitter_on = router._jitter_fraction > 0
        jlow = router._jitter_low
        jspan = router._jitter_span
        executor_vm = runtime.executor_vm
        schedule_at_fast = sim.schedule_at_fast
        deliver = runtime.deliver

        #: target executor id -> per-channel (deliveries, root idx, parent
        #: completion times, sender id, event ids or None) arrays, appended in
        #: topological order.  The ids slot is non-None only for adopted
        #: in-flight events under acking (sweep-born events stay symbolic).
        arrivals: Dict[str, List[Tuple[Any, Any, Any, str, Any]]] = {}
        field_cache: Dict[int, Any] = {}

        def field_indices(num: int):
            cached = field_cache.get(num)
            if cached is None:
                cached = np.fromiter(
                    (stable_field_index(field_key_of(p), num) for p in payloads),
                    dtype=np.intp,
                    count=len(payloads),
                )
                field_cache[num] = cached
            return cached

        def ship(sender_id: str, task_name: str, target: str, parent_c, roots) -> None:
            """One channel's deliveries: jitter, FIFO bump, bound split."""
            nonlocal inline_count
            n = len(parent_c)
            channel = (sender_id, target)
            base = channel_base.get(channel)
            if base is None:
                base = channel_base[channel] = network.base_latency(
                    executor_vm(sender_id), executor_vm(target)
                )
            if jitter_on:
                stream = keyed_jitter.get(channel)
                if stream is None:
                    stream = keyed_jitter[channel] = network.keyed_jitter_stream(
                        sender_id, target
                    )
                start = stream.counter
                stream.counter = start + n
                draws = keyed_value_block(stream.seed, start, n, np)
                lat = base * (1.0 + (jlow + jspan * draws))
                np.maximum(lat, 0.0, out=lat)
                raw = parent_c + lat
            else:
                raw = parent_c + base
            last = last_delivery.get(channel, 0.0)
            if raw[0] >= last + 1e-9 and (
                n == 1 or bool((raw[1:] >= raw[:-1] + 1e-9).all())
            ):
                deliveries = raw  # no FIFO bump anywhere (the usual case)
            else:
                deliveries = raw.copy()
                prev = last
                for i in range(n):
                    earliest = prev + 1e-9
                    if earliest > deliveries[i]:
                        deliveries[i] = earliest
                    prev = deliveries[i]
            tail = float(deliveries[-1])
            last_delivery[channel] = tail
            router.routed_count += n
            if (tail <= cut_value) if side_right else (tail < cut_value):
                cut = n  # whole channel in bound: skip the searchsorted
            else:
                cut = int(np.searchsorted(deliveries, cut_value, side=cut_side))
            if cut:
                arrivals.setdefault(target, []).append(
                    (deliveries[:cut], roots[:cut], parent_c[:cut], sender_id, None)
                )
                inline_count += cut
                if acked:
                    # Symbolic anchors: each in-bound shipped event will also
                    # be acked (in-sweep or converted on spill), so no id is
                    # drawn here — only the per-root count advances.
                    np.add.at(anch_counts, roots[:cut], 1)
            for i in range(cut, n):  # beyond the bound: classic deliveries
                r = int(roots[i])
                eid_new = next_event_id()
                if acked:
                    if r < n_roots:
                        # A new root's spilled event: its real id is part of
                        # the tree hash register_block will materialize.
                        resid[r] ^= eid_new
                        spill_counts[r] += 1
                        anch_counts[r] += 1
                    else:
                        anchor_pairs.append((root_ids[r], eid_new))
                event = Event(
                    eid_new, root_ids[r], _DATA_KIND, task_name,
                    payloads[r], float(parent_c[i]), root_emitted[r], None, None, 0, acked,
                )
                schedule_at_fast(float(deliveries[i]), deliver, (target, event, sender_id))

        def route_stream(sender_id: str, task_name: str, completions, roots) -> None:
            """Mirror Router.route target selection on whole arrays."""
            plan = plans.get(task_name)
            if plan is None:
                plan = router._build_plan(task_name)
            n = len(completions)
            for edge, instances, grouping, num in plan:
                if num == 1 or grouping is Grouping.GLOBAL:
                    ship(sender_id, task_name, instances[0], completions, roots)
                elif grouping is Grouping.ALL:
                    for target in instances:
                        ship(sender_id, task_name, target, completions, roots)
                elif grouping is Grouping.FIELDS:
                    tidx = field_indices(num)[roots]
                    for k in range(num):
                        mask = tidx == k
                        if mask.any():
                            ship(sender_id, task_name, instances[k],
                                 completions[mask], roots[mask])
                else:  # shuffle round-robin per (sender executor, dst task)
                    counter_key = (sender_id, edge.dst)
                    start = shuffle_counters.get(counter_key, 0)
                    shuffle_counters[counter_key] = start + n
                    # Event i goes to instance (start + i) % num, so instance
                    # k's events are the strided slice starting at
                    # (k - start) % num -- views, no masks, no copies.
                    for k in range(num):
                        i0 = (k - start) % num
                        if i0 < n:
                            ship(sender_id, task_name, instances[k],
                                 completions[i0::num], roots[i0::num])

        # ---- Commit the ingestion: the sweep now owns all in-flight work.
        # Pending deliveries inside the bound become one-element arrival
        # channels (their jitter was drawn -- and the channel FIFO state
        # advanced -- when they were routed); the rest go straight back on the
        # kernel heap unchanged.  Each busy executor is seeded with its fixed
        # in-service completion time plus its queued arrivals, in order.
        #: executor id -> (in-service completion time, [(event, sender) ...],
        #: adopted root indices), list position 0 being the in-service event.
        seeded: Dict[str, Tuple[float, List[Tuple[Event, str]], List[int]]] = {}
        if pending_entries:
            sim.remove_fast_entries()
            for when, target, event, sender_id in inflight:
                if when <= limit and when < hor:
                    idx = adopt(event)
                    if acked:
                        # The event's id is already folded into its pending
                        # tree: carry it so the in-sweep ack removes exactly
                        # it, and keep the object (recycle would refuse it
                        # anyway) in case it spills past the bound again.
                        ids_arr = np.array([event.event_id], dtype=np.uint64)
                        adopted_by_id[int(event.event_id)] = event
                    else:
                        ids_arr = None
                    arrivals.setdefault(target, []).append(
                        (
                            np.array([when]),
                            np.array([idx], dtype=np.intp),
                            np.array([event.created_at]),
                            sender_id,
                            ids_arr,
                        )
                    )
                    inline_count += 1
                    if not acked:
                        recycle_event(event)
                else:
                    schedule_at_fast(when, deliver, (target, event, sender_id))
            for executor, (when, event) in busy_completions.items():
                entries: List[Tuple[Event, str]] = [(event, "")]
                entries.extend(executor.input_queue)
                executor.input_queue.clear()
                executor._busy = False  # re-established by the spill if needed
                seeded[executor.executor_id] = (
                    when, entries, [adopt(ev) for ev, _ in entries]
                )

        if acked:
            # Ingestion fixed the root-index space; the counters can now be
            # sized once (ship and the executor loop mutate them in place).
            n_total = len(payloads)
            anch_counts = np.zeros(n_total, dtype=np.int64)
            ack_counts = np.zeros(n_total, dtype=np.int64)
            resid = [0] * n_roots
            spill_counts = [0] * n_roots

        route_stream(
            source.executor_id, source_name,
            np.array(tick_times), np.arange(n_roots),
        )

        sink_recs: List[Tuple[Any, Any, SinkExecutor]] = []
        for name in dataflow.topological_order:
            task = dataflow.task(name)
            if task.kind is TaskKind.SOURCE:
                continue
            for eid in task.instance_ids():
                chans = arrivals.get(eid)
                seed = seeded.get(eid)
                if not chans and seed is None:
                    continue
                executor = executors[eid]
                service = executor._service_time
                if chans:
                    if len(chans) == 1:
                        arr, roots, parents, sole_sender, aids = chans[0]
                        senders = None
                    else:
                        arr = np.concatenate([c[0] for c in chans])
                        roots = np.concatenate([c[1] for c in chans])
                        parents = np.concatenate([c[2] for c in chans])
                        senders = np.concatenate(
                            [np.full(len(c[0]), i, dtype=np.intp) for i, c in enumerate(chans)]
                        )
                        if acked and any(c[4] is not None for c in chans):
                            aids = np.concatenate(
                                [
                                    c[4]
                                    if c[4] is not None
                                    else np.zeros(len(c[0]), dtype=np.uint64)
                                    for c in chans
                                ]
                            )
                        else:
                            aids = None
                        order = np.argsort(arr, kind="stable")
                        arr = arr[order]
                        roots = roots[order]
                        parents = parents[order]
                        senders = senders[order]
                        if aids is not None:
                            aids = aids[order]
                        sole_sender = None
                    n = len(arr)
                else:
                    arr = roots = parents = senders = sole_sender = aids = None
                    n = 0
                if seed is not None:
                    # Seeded prefix: the in-service completion is pinned at
                    # its already-scheduled time, the queued arrivals drain
                    # back to back after it (``tc = t + service`` chains, the
                    # exact classic recurrence).  Every seeded completion
                    # precedes every new-arrival completion in time, so the
                    # concatenation below stays sorted.
                    t_fixed, sevents, sidx = seed
                    m = len(sevents)
                    sc = np.empty(m)
                    prev = t_fixed
                    sc[0] = prev
                    for j in range(1, m):
                        prev = prev + service
                        sc[j] = prev
                    prev_init = prev
                    sids = (
                        np.fromiter(
                            (ev.event_id for ev, _ in sevents), dtype=np.uint64, count=m
                        )
                        if acked
                        else None
                    )
                else:
                    sevents = sidx = sids = None
                    m = 0
                    prev_init = None
                if n:
                    if service == 0.0:
                        if prev_init is not None and arr[0] < prev_init:
                            # Arrivals landing while the seeded work drains
                            # complete the instant it finishes (exact: a
                            # selection, no arithmetic).
                            ncomp = np.maximum(arr, prev_init)
                        else:
                            ncomp = arr  # `tc = t + 0.0` is exact
                    elif (prev_init is None or arr[0] >= prev_init) and (
                        n == 1 or bool((arr[1:] >= arr[:-1] + service).all())
                    ):
                        ncomp = arr + service  # no queueing anywhere
                    else:
                        ncomp = np.empty(n)
                        prev = float("-inf") if prev_init is None else prev_init
                        for i in range(n):  # exact Lindley scan
                            value = arr[i]
                            prev = (value if value > prev else prev) + service
                            ncomp[i] = prev
                else:
                    ncomp = None
                if m and n:
                    completions = np.concatenate([sc, ncomp])
                    all_roots = np.concatenate([np.asarray(sidx, dtype=np.intp), roots])
                    if acked:
                        all_ids = np.concatenate(
                            [sids, aids if aids is not None else np.zeros(n, dtype=np.uint64)]
                        )
                    else:
                        all_ids = None
                elif m:
                    completions = sc
                    all_roots = np.asarray(sidx, dtype=np.intp)
                    all_ids = sids
                else:
                    completions = ncomp
                    all_roots = roots
                    all_ids = aids
                total = m + n
                if service == 0.0 and m == 0:
                    k = total  # inline arrivals complete at their own (in-bound) times
                else:
                    # Seeded completion times were inherited from the kernel
                    # heap and may already sit past the bound, so the cut
                    # applies even when the service time is zero.
                    tail = float(completions[total - 1])
                    if (tail <= cut_value) if side_right else (tail < cut_value):
                        k = total
                    else:
                        k = int(np.searchsorted(completions, cut_value, side=cut_side))
                inline_count += k
                if acked and k:
                    # Every in-sweep completion acks its event (the classic
                    # path acks at both process and sink completions):
                    # symbolic for sweep-born events — the count cancels the
                    # ship-time anchor — and a real-id ack for adopted events,
                    # whose ids are already in their trees' hashes.
                    np.add.at(ack_counts, all_roots[:k], 1)
                    if all_ids is not None:
                        for j in np.flatnonzero(all_ids[:k]):
                            r = int(all_roots[j])
                            ack_counts[r] -= 1
                            ack_pairs.append((root_ids[r], int(all_ids[j])))
                if type(executor) is SinkExecutor:
                    if k:
                        sink_recs.append((completions[:k], all_roots[:k], executor))
                        executor.received_count += k
                        executor.processed_count += k
                else:
                    if k:
                        route_stream(eid, name, completions[:k], all_roots[:k])
                        executor.processed_count += k
                        state = executor.state
                        state["processed"] = state.get("processed", 0) + k
                        busy = executor.busy_time_s
                        for _ in range(k):  # k sequential adds, like the kernel
                            busy += service
                        executor.busy_time_s = busy
                for j in range(min(k, m)):
                    # Completed adopted events leave the system here; feed the
                    # clone pool as the classic sink path eventually would.
                    recycle_event(sevents[j][0])
                if k < total:
                    # The k-th service crosses the bound: leave the executor
                    # busy with its completion on the kernel heap and the
                    # later arrivals queued, exactly as the classic kernel
                    # would have them at this point.  Seeded positions still
                    # hold their original Event objects; new arrivals are
                    # materialized from the sweep arrays.
                    def event_at(i: int) -> Tuple[Event, str]:
                        if i < m:
                            return sevents[i]
                        j = i - m
                        r = int(roots[j])
                        sid = (
                            sole_sender
                            if senders is None
                            else chans[int(senders[j])][3]
                        )
                        if aids is not None and aids[j]:
                            # Adopted event crossing the bound again: hand the
                            # original object back so the id folded into its
                            # tree stays the one the classic path will ack.
                            return adopted_by_id[int(aids[j])], sid
                        eid_new = next_event_id()
                        if acked:
                            if r < n_roots:
                                resid[r] ^= eid_new
                                spill_counts[r] += 1
                            else:
                                # Convert the ship-time symbolic anchor into a
                                # real one on the pre-existing tree.
                                anch_counts[r] -= 1
                                anchor_pairs.append((root_ids[r], eid_new))
                        event = Event(
                            eid_new, root_ids[r], _DATA_KIND,
                            executors[sid].task.name, payloads[r],
                            float(parents[j]), root_emitted[r], None, None, 0, acked,
                        )
                        return event, sid

                    executor._busy = True
                    in_service, _in_sender = event_at(k)
                    schedule_at_fast(
                        float(completions[k]), executor._complete_data, (in_service,)
                    )
                    queue_append = executor.input_queue.append
                    for i in range(k + 1, total):
                        queue_append(event_at(i))

        # ---- Commit the ack stream: one bulk acker update per category.
        if acked:
            # New roots whose every event was anchored *and* acked inside the
            # sweep resolved to zero by construction — stats only, no
            # PendingTree, no timer.  The rest materialize with their exact
            # classic end-of-stretch state (hash = XOR of outstanding spilled
            # ids) and back-dated timeout timers.
            resolved_count = 0
            resolved_anchors = 0
            resolved_acks = 0
            u_idx: List[int] = []
            for r in range(n_roots):
                if spill_counts[r] == 0 and anch_counts[r] > 0:
                    resolved_count += 1
                    resolved_anchors += int(anch_counts[r])
                    resolved_acks += int(ack_counts[r])
                else:
                    u_idx.append(r)
            acker.absorb_resolved(resolved_count, resolved_anchors, resolved_acks)
            if u_idx:
                u_roots = [root_ids[r] for r in u_idx]
                acker.register_block(
                    u_roots,
                    [tick_times[r] for r in u_idx],
                    [resid[r] for r in u_idx],
                    [int(anch_counts[r]) for r in u_idx],
                    [int(ack_counts[r]) for r in u_idx],
                )
                source.cache_block(u_roots, [payloads[r] for r in u_idx])
            # Pre-existing trees: real anchors first (spilled ids enter the
            # hashes), then the cancelled symbolic pairs, then the real acks —
            # so no tree's hash can transiently return to zero before all its
            # outstanding ids are in place.  Completions fire the classic
            # on_complete (source drops its cached payloads).
            if anchor_pairs:
                acker.anchor_batch(anchor_pairs)
            if len(payloads) > n_roots:
                adopted_idx = range(n_roots, len(payloads))
                acker.settle_batch(
                    [root_ids[r] for r in adopted_idx],
                    [int(anch_counts[r]) for r in adopted_idx],
                    [int(ack_counts[r]) for r in adopted_idx],
                )
            if ack_pairs:
                acker.ack_batch(ack_pairs)

        # ---- Phase C: receipts merged into the log in global time order.
        if sink_recs:
            log = runtime.log
            # Per-root fields are gathered with one numpy fancy-index and the
            # receipt ids come from one bulk reservation plus ``np.arange``.
            # ``extend_receipts`` is backend-polymorphic: the classic log
            # materializes the exact records the classic path would have
            # built (tolist() yields native floats/ints), the columnar log
            # appends the arrays directly — zero per-event objects.
            rid_arr = np.asarray(root_ids, dtype=np.int64)
            emitted_arr = np.asarray(root_emitted, dtype=np.float64)
            if len(sink_recs) == 1:
                times, roots, sink = sink_recs[0]
                eid0 = reserve_event_ids(len(times))
                log.extend_receipts(
                    times,
                    rid_arr[roots],
                    np.arange(eid0, eid0 + len(times), dtype=np.int64),
                    sink.task.name,
                    emitted_arr[roots],
                )
            else:
                all_times = np.concatenate([rec[0] for rec in sink_recs])
                all_roots = np.concatenate([rec[1] for rec in sink_recs])
                which = np.concatenate(
                    [np.full(len(rec[0]), i, dtype=np.intp) for i, rec in enumerate(sink_recs)]
                )
                names = [rec[2].task.name for rec in sink_recs]
                order = np.argsort(all_times, kind="stable")
                roots_sorted = all_roots[order]
                eid0 = reserve_event_ids(len(all_times))
                log.extend_receipts(
                    all_times[order],
                    rid_arr[roots_sorted],
                    np.arange(eid0, eid0 + len(all_times), dtype=np.int64),
                    names,
                    emitted_arr[roots_sorted],
                    sink_indices=which[order],
                )

        # ---- Re-arm the source exactly as _arm_emit_timer would.
        if idle_from is not None:
            source._emit_timer = sim.schedule_at(
                idle_from + runtime.timing.source_idle_recheck_s, source._arm_emit_timer
            )
        else:
            source._emit_timer = sim.schedule_at(next_tick, source._emit_tick)

        self.cascades += 1
        self.vector_cascades += 1
        self.inline_events += inline_count
        return True
