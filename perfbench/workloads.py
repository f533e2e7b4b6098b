"""The benchmark's workloads: fixed simulated work, run to completion, checked.

Each workload function takes the seed, a :class:`Meter` and whether to run
the source-root checks, runs its work through the public ``repro`` API and
returns a :class:`Outcome`.  Checks of the program's outputs run inside
``meter.untimed()`` so they are not part of the measured wall time.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, TypeVar

import numpy as np

from repro.cluster.cloud import CloudProvider, Cluster
from repro.cluster.vm import D2, D3
from repro.dataflow import topologies
from repro.dataflow.topologies import PAPER_ORDER
from repro.engine.config import ReliabilityConfig, RuntimeConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments.chaos import run_chaos_run
from repro.experiments.figures import (
    DEFAULT_LATENCY_WINDOW_S,
    DEFAULT_RATE_BIN_S,
    PAPER_FIG5,
    PAPER_FIG6,
    PAPER_FIG8,
    STRATEGY_ORDER,
)
from repro.experiments.scenarios import run_migration_experiment
from repro.metrics.timeline import latency_timeline, rate_timeline
from repro.sim import Simulator
from timing import Meter

T = TypeVar("T")

#: Paper matrix timing: migration after 90 s, 540 s observed afterwards.
MIGRATE_AT_S = 90.0
POST_MIGRATION_S = 540.0
#: The 100x-rate Grid steady state: simulated length and worker fleet.
STEADY_DURATION_S = 600.0
STEADY_WORKERS = 11
#: The eviction storm each chaos mode rides.
CHAOS_DURATION_S = 600.0
CHAOS_STORMS = 3
CHAOS_MODES = ("notice", "oblivious")


@dataclass
class Outcome:
    """What one workload run produced, for the parent to compare and report."""

    #: Counters read from public attributes; identical for a given seed.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Workload-specific results (fail ratio, paper fidelity, chaos scores);
    #: deterministic per seed.
    results: Dict[str, float] = field(default_factory=dict)
    #: Descriptions of every failed check (empty when the outputs are right).
    errors: List[str] = field(default_factory=list)
    #: Labels of the operations that raised or failed a check.
    failed_operations: Set[str] = field(default_factory=set)
    #: Whether the source-root checks (and so ``fail_ratio``) run.  They read
    #: every log row, so repetitions after the ones that compare them skip them.
    root_checks: bool = True
    #: Operations attempted (matrix cells, chaos modes, steady runs).
    operations: int = 0
    #: Roots counted as failed, with the reason, for the report.
    failed_roots: List[str] = field(default_factory=list)
    #: Operations the program raised in, with the exception and where.
    crashes: List[str] = field(default_factory=list)

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def check(self, ok: bool, operation: str, message: str) -> None:
        if not ok:
            self.errors.append(f"{operation}: {message}")
            self.failed_operations.add(operation)

    def attempt(self, operation: str, run: Callable[[], T]) -> Optional[T]:
        """Run one operation; if the program raises, count it failed and go on.

        A crash is the program's failure, not the benchmark's: it is reported
        with its exception and innermost frame, and the other operations
        still run and are still checked.
        """
        self.operations += 1
        try:
            return run()
        except Exception as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            self.crashes.append(
                f"{operation}: {type(exc).__name__}: {exc} "
                f"(at {Path(frame.filename).name}:{frame.lineno} in {frame.name})"
            )
            self.failed_operations.add(operation)
            return None


# ------------------------------------------------------------------ counters
def _add_runtime_counts(out: Outcome, runtime: TopologyRuntime) -> None:
    """Fold one runtime's public tallies into the outcome's counters."""
    log = runtime.log
    stepper = runtime.batch_stepper
    stats = runtime.acker.stats
    store = runtime.statestore.stats
    out.add("receipts", len(log.sink_receipts))
    out.add("sim.events", runtime.sim.processed_events)
    out.add("engine.router.routed", runtime.router.routed_count)
    out.add("engine.batch.cascades", stepper.cascades if stepper is not None else 0)
    out.add("engine.batch.inline_events", stepper.inline_events if stepper is not None else 0)
    out.add("reliability.acker.registered", stats.registered)
    out.add("reliability.acker.completed", stats.completed)
    out.add("reliability.acker.failed", stats.failed)
    out.add("reliability.acker.late_acks", stats.late_acks)
    out.add("reliability.acker.acks", stats.acks)
    out.add("reliability.acker.bulk_acks", stats.bulk_acks)
    out.add("reliability.checkpoint.waves", len(runtime.checkpoints.history))
    out.add("reliability.statestore.puts", store.puts)
    out.add("reliability.statestore.bytes_written", store.bytes_written)
    out.add(
        "metrics.log.rows",
        len(log.source_emits) + len(log.sink_receipts) + len(log.drops)
        + len(log.deferred) + len(log.kills) + len(log.lifecycle),
    )


#: Log rows read per slice, so the checks never hold a whole log's rows at once.
ROW_CHUNK = 1 << 16


def _emit_columns(emits) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Root id, time and replay count of every ``SourceEmit``, as arrays."""
    roots, times, replays = [], [], []
    for start in range(0, len(emits), ROW_CHUNK):
        rows = emits[start:start + ROW_CHUNK]
        roots.append(np.array([r.root_id for r in rows], dtype=np.int64))
        times.append(np.array([r.time for r in rows], dtype=np.float64))
        replays.append(np.array([r.replay_count for r in rows], dtype=np.int64))
    if not roots:
        return np.zeros(0, np.int64), np.zeros(0, np.float64), np.zeros(0, np.int64)
    return np.concatenate(roots), np.concatenate(times), np.concatenate(replays)


def _received_roots(receipts) -> np.ndarray:
    """The distinct root ids among the ``SinkReceipt`` rows."""
    parts = [np.zeros(0, np.int64)]
    for start in range(0, len(receipts), ROW_CHUNK):
        rows = receipts[start:start + ROW_CHUNK]
        parts.append(np.unique(np.array([r.root_id for r in rows], dtype=np.int64)))
    return np.unique(np.concatenate(parts))


def _check_roots(
    out: Outcome, label: str, runtime: TopologyRuntime, end_time: float, replay_fails: bool
) -> None:
    """Count attempted and failed source roots of one run.

    A root fails when it was first emitted more than twice the ack timeout
    before the end and never reached a sink, or -- where ``replay_fails``
    (DCR and CCR, which promise no replays) -- when it was replayed at all.
    """
    if not out.root_checks:
        return
    log = runtime.log
    root, emitted_at, replay = _emit_columns(log.source_emits)
    received = _received_roots(log.sink_receipts)
    first = replay == 0
    first_root = root[first]
    first_time = emitted_at[first]
    out.check(
        len(np.unique(first_root)) == len(first_root),
        label,
        "a root has more than one first emission",
    )
    replayed = np.unique(root[~first])
    out.check(
        bool(np.isin(replayed, first_root).all()),
        label,
        "a replayed root was never first emitted",
    )
    cutoff = end_time - 2.0 * runtime.reliability.ack_timeout_s
    old = first_time < cutoff
    lost_mask = old & ~np.isin(first_root, received)
    failed = set(first_root[lost_mask].tolist())
    if replay_fails:
        failed.update(replayed.tolist())
    acker = runtime.acker
    replayed_set = set(replayed.tolist())
    for root_id, at in zip(first_root[lost_mask].tolist(), first_time[lost_mask].tolist()):
        out.failed_roots.append(
            f"{label}: root {root_id} emitted at {at:.3f} s never reached a sink "
            f"(replayed={root_id in replayed_set}, pending={acker.is_pending(root_id)})"
        )
    if replay_fails and len(replayed):
        out.failed_roots.append(f"{label}: {len(replayed)} roots replayed")
    out.add("roots.attempted", len(first_root))
    out.add("roots.failed", len(failed))


def _finish_fail_ratio(out: Outcome) -> None:
    if not out.root_checks:
        return
    attempted = out.counts.get("roots.attempted", 0)
    out.check(attempted > 0, "workload", "no source root was emitted")
    out.results["fail_ratio"] = out.counts.get("roots.failed", 0) / max(attempted, 1)


# -------------------------------------------------------------- paper_matrix
def _paper_cell(dag: str, strategy: str, scaling: str, seed: int):
    """One matrix cell and its figure series, as the figure drivers build them."""
    result = run_migration_experiment(
        dag=dag,
        strategy=strategy,
        scaling=scaling,
        migrate_at_s=MIGRATE_AT_S,
        post_migration_s=POST_MIGRATION_S,
        seed=seed,
    )
    log = result.log
    series = (
        rate_timeline(log, kind="input", bin_s=DEFAULT_RATE_BIN_S),
        rate_timeline(log, kind="output", bin_s=DEFAULT_RATE_BIN_S),
        latency_timeline(log, window_s=DEFAULT_LATENCY_WINDOW_S),
    )
    return result, series


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def paper_matrix(seed: int, meter: Meter, root_checks: bool) -> Outcome:
    """The paper's 30 migration cells, each with its figure series."""
    out = Outcome(root_checks=root_checks)
    restore_err: List[float] = []
    replay_err: List[float] = []
    stab_err: List[float] = []
    restore: Dict[Tuple[str, str, str], float] = {}
    for scaling in ("in", "out"):
        for dag in PAPER_ORDER:
            for strategy in STRATEGY_ORDER:
                label = f"{dag} {strategy} scale-{scaling}"
                cell = out.attempt(label, lambda: _paper_cell(dag, strategy, scaling, seed))
                if cell is None:
                    continue
                result, series = cell
                with meter.untimed():
                    out.check(all(series), label, "an empty figure series")
                    metrics = result.metrics
                    end = result.runtime.sim.now
                    out.check(
                        end == MIGRATE_AT_S + POST_MIGRATION_S, label, f"run ended at {end}"
                    )
                    _add_runtime_counts(out, result.runtime)
                    _check_roots(out, label, result.runtime, end, replay_fails=strategy != "dsm")
                    key = (scaling, dag, strategy)
                    value = metrics.restore_duration_s
                    out.check(value is not None, label, "the migration never restored")
                    restore[key] = value if value is not None else float("inf")
                    paper_restore = PAPER_FIG5[key][0]
                    restore_err.append(abs(restore[key] - paper_restore) / paper_restore)
                    stab = metrics.stabilization_time_s
                    # A cell that never stabilizes counts as stabilizing at the
                    # end of its observation window.
                    stab = POST_MIGRATION_S if stab is None else stab
                    stab_err.append(abs(stab - PAPER_FIG8[key]) / PAPER_FIG8[key])
                    if strategy == "dsm":
                        paper_replays = PAPER_FIG6[(scaling, dag)]
                        replay_err.append(
                            abs(metrics.replayed_message_count - paper_replays) / paper_replays
                        )
                del cell, result, series
    with meter.untimed():
        agree = 0
        groups = 0
        for scaling in ("in", "out"):
            for dag in PAPER_ORDER:
                groups += 1
                if all((scaling, dag, s) in restore for s in STRATEGY_ORDER):
                    ours = sorted(STRATEGY_ORDER, key=lambda s: restore[(scaling, dag, s)])
                    paper = sorted(STRATEGY_ORDER, key=lambda s: PAPER_FIG5[(scaling, dag, s)][0])
                    agree += ours == paper
        out.results["paper.restore_err"] = _mean(restore_err)
        out.results["paper.replay_err"] = _mean(replay_err)
        out.results["paper.stab_err"] = _mean(stab_err)
        out.results["paper.order_agree"] = agree / groups
        out.check(out.operations == 30, "workload", f"{out.operations} matrix cells ran, expected 30")
        _finish_fail_ratio(out)
    return out


# -------------------------------------------------------------- steady_acked
def steady_acked(seed: int, meter: Meter, root_checks: bool) -> Outcome:
    """The 100x-rate Grid, every tuple acked, under the batch stepper."""
    out = Outcome(root_checks=root_checks)
    sim = Simulator()
    provider = CloudProvider(sim)
    cluster = Cluster()
    util_vm = provider.provision(D3, 1, name_prefix="util")[0]
    util_vm.tags["role"] = "util"
    cluster.add_vm(util_vm)
    for vm in provider.provision(D2, STEADY_WORKERS, name_prefix="w"):
        cluster.add_vm(vm)
    config = RuntimeConfig(
        reliability=ReliabilityConfig(
            ack_all_events=True,
            ack_timeout_s=30.0,
            periodic_checkpoint_interval_s=None,
            capture_on_prepare=False,
            max_spout_pending=None,
        ),
        seed=seed,
        batch_stepping=True,
    )
    runtime = TopologyRuntime(
        topologies.grid(rate=800.0, latency_s=0.001), cluster, sim=sim, config=config
    )
    runtime.deploy()
    runtime.start()
    runtime.run_batched(until=STEADY_DURATION_S)
    with meter.untimed():
        out.operations = 1
        end = sim.now
        out.check(end == STEADY_DURATION_S, "steady_acked", f"run ended at {end}")
        _add_runtime_counts(out, runtime)
        _check_roots(out, "steady_acked", runtime, end, replay_fails=False)
        stats = runtime.acker.stats
        pending = runtime.acker.pending_count
        out.check(
            stats.registered == stats.completed + stats.failed + pending,
            "steady_acked",
            f"acker: registered {stats.registered} != completed {stats.completed} "
            f"+ failed {stats.failed} + pending {pending}",
        )
        out.check(out.counts["receipts"] > 0, "steady_acked", "no sink receipts")
        _finish_fail_ratio(out)
    return out


# --------------------------------------------------------------- chaos_storm
def _check_faults(out: Outcome, mode: str, result) -> None:
    """Every injected fault is recorded once and handled once."""
    records = result.injector.records
    out.check(len(records) == CHAOS_STORMS, mode, f"{len(records)} fault records")
    out.check(
        [r.index for r in records] == list(range(len(records))),
        mode,
        "fault record indexes are not 0..n-1",
    )
    out.check(
        len({id(r.event) for r in records}) == len(records),
        mode,
        "a scheduled fault was recorded twice",
    )
    for record in records:
        label = f"fault {record.index} on {record.vm_id}"
        out.check(record.outcome in ("killed", "evaded"), mode, f"{label} ended {record.outcome!r}")
        out.check(record.fired_at == record.event.at_s, mode, f"{label} fired at {record.fired_at}")
        if record.outcome == "killed":
            matches = [
                r for r in result.recoveries
                if r.vm_id == record.vm_id and r.failed_at == record.killed_at
            ]
            out.check(len(matches) == 1, mode, f"{label}: {len(matches)} recoveries")
        if mode == "notice":
            matches = [
                r for r in result.evacuations
                if r.vm_id == record.vm_id and r.notice_at == record.fired_at
            ]
            out.check(len(matches) == 1, mode, f"{label}: {len(matches)} evacuations")


def chaos_storm(seed: int, meter: Meter, root_checks: bool) -> Outcome:
    """One grid-keyed DSM eviction storm per recovery mode."""
    out = Outcome(root_checks=root_checks)
    unavailable = 0.0
    replays = 0
    cost = 0.0
    for mode in CHAOS_MODES:
        result = out.attempt(
            mode,
            lambda: run_chaos_run(
                dag="grid-keyed",
                strategy="dsm",
                mode=mode,
                duration_s=CHAOS_DURATION_S,
                seed=seed,
                storm_count=CHAOS_STORMS,
            ),
        )
        if result is None:
            continue
        unavailable += sum(result.restore_latencies())
        replays += result.replayed_messages
        cost += result.total_cost
        with meter.untimed():
            runtime = result.runtime
            end = runtime.sim.now
            out.check(end == CHAOS_DURATION_S, mode, f"run ended at {end}")
            _add_runtime_counts(out, runtime)
            _check_roots(out, mode, runtime, end, replay_fails=False)
            _check_faults(out, mode, result)
        del result
    with meter.untimed():
        out.results["chaos.unavailable_s"] = unavailable
        out.results["chaos.replays"] = replays
        out.results["chaos.cost_usd"] = cost
        _finish_fail_ratio(out)
    return out


WORKLOADS: Dict[str, Callable[[int, Meter, bool], Outcome]] = {
    "paper_matrix": paper_matrix,
    "steady_acked": steady_acked,
    "chaos_storm": chaos_storm,
}
