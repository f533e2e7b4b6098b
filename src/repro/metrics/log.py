"""The event log: raw observations collected by the engine during a run.

The engine appends a record for every source emission, sink receipt, dropped
event, executor kill and lifecycle transition.  Experiments and metrics are
computed entirely from this log (plus the strategy's phase timestamps), which
mirrors the paper's methodology of logging event timestamps on the VMs and
analysing them offline.

Index design
------------
The log is append-only and simulated time never goes backwards, so the record
lists are monotone in time.  Next to each hot list the log maintains a plain
``List[float]`` of the record times (:attr:`EventLog.emit_times`,
:attr:`EventLog.receipt_times`); every windowed query
(``receipts_after/between``, ``emits_between``, ``first_receipt_after``, the
recovery-metric scans) binary-searches those arrays with :mod:`bisect` instead
of scanning the whole list — monitors and metrics issue these queries every
sample, which made the naive linear scans quadratic over a long run.
``distinct_roots_received`` is maintained incrementally for the same reason.

Columnar backend
----------------
:class:`ColumnarEventLog` stores the two hot streams (emits, receipts) as
numpy struct-of-arrays instead of lists of dataclass rows: one growable
float64/int64 column per field, with task names interned into a shared string
table.  The query API stays bit-compatible — ``source_emits``,
``sink_receipts``, ``emit_times`` and ``receipt_times`` become lazy row views
that only materialize :class:`SourceEmit`/:class:`SinkReceipt` objects (or
Python floats) when a record is actually touched, so every bisect-indexed
query above works unchanged.  The payoff is the write path: the batch
stepper's vectorized cascade hands whole arrays to
:meth:`EventLog.extend_emits`/:meth:`EventLog.extend_receipts` and the
columnar backend appends them with numpy copies, no per-event Python object.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

import numpy as _np

from repro.sim import Simulator


def _as_list(values: Any) -> List:
    """Sequence → plain list of *Python* scalars (ndarray-safe).

    ``ndarray.tolist`` converts numpy scalars to builtins, which matters for
    bit-compatibility: records and digests must hold ``float``/``int``, never
    ``np.float64`` (whose ``repr`` differs).
    """
    tolist = getattr(values, "tolist", None)
    if tolist is not None:
        return tolist()
    return list(values)


@dataclass(frozen=True, slots=True)
class SourceEmit:
    """One event emission by a source task (first emission, backlog drain or replay)."""

    time: float
    root_id: int
    source: str
    replay_count: int
    from_backlog: bool


@dataclass(frozen=True, slots=True)
class SinkReceipt:
    """One event received by a sink task."""

    time: float
    root_id: int
    event_id: int
    sink: str
    root_emitted_at: float
    replay_count: int

    @property
    def latency_s(self) -> float:
        """End-to-end latency measured from the root's original emission."""
        return self.time - self.root_emitted_at


@dataclass(frozen=True, slots=True)
class DropRecord:
    """An event dropped because its destination executor could not accept it."""

    time: float
    executor_id: str
    kind: str
    reason: str
    root_id: Optional[int] = None


@dataclass(frozen=True, slots=True)
class DeferredRecord:
    """A data event held by the transport while its destination executor restarts."""

    time: float
    executor_id: str
    root_id: Optional[int] = None


@dataclass(frozen=True, slots=True)
class KillRecord:
    """An executor kill, with the number of queued events lost."""

    time: float
    executor_id: str
    queued_events_lost: int
    pending_events_lost: int


@dataclass(frozen=True, slots=True)
class LifecycleRecord:
    """An executor lifecycle transition (started, killed, restarted, ready, initialized)."""

    time: float
    executor_id: str
    status: str


class EventLog:
    """Accumulates raw run observations and answers the queries metrics need."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.source_emits: List[SourceEmit] = []
        self.sink_receipts: List[SinkReceipt] = []
        self.drops: List[DropRecord] = []
        self.deferred: List[DeferredRecord] = []
        self.kills: List[KillRecord] = []
        self.lifecycle: List[LifecycleRecord] = []
        self.replay_emits: int = 0
        #: Monotone time arrays parallel to source_emits / sink_receipts
        #: (the bisect indexes behind every windowed query).
        self.emit_times: List[float] = []
        self.receipt_times: List[float] = []
        self._root_first_emit: Dict[int, float] = {}
        self._roots_received: Set[int] = set()

    # -------------------------------------------------------------- recording
    def record_source_emit(
        self,
        root_id: int,
        source: str,
        replay_count: int = 0,
        from_backlog: bool = False,
        at_time: Optional[float] = None,
    ) -> None:
        """Record that a source emitted (or re-emitted) a root event.

        ``at_time`` serves the batch-stepping cascade, which materializes
        many ticks inside one kernel callback: each emission is stamped with
        its exact tick time.  Stamped times must be non-decreasing (the
        ``emit_times`` index is binary-searched).
        """
        now = self.sim.now if at_time is None else at_time
        self.source_emits.append(
            SourceEmit(time=now, root_id=root_id, source=source,
                       replay_count=replay_count, from_backlog=from_backlog)
        )
        self.emit_times.append(now)
        if replay_count > 0:
            self.replay_emits += 1
        if root_id not in self._root_first_emit:
            self._root_first_emit[root_id] = now

    def record_sink_receipt(
        self,
        root_id: int,
        event_id: int,
        sink: str,
        root_emitted_at: float,
        replay_count: int,
        at_time: Optional[float] = None,
    ) -> None:
        """Record that a sink received an event (now, or at an explicit time).

        ``at_time`` lets a sink's batched service loop stamp each receipt
        with its exact completion time even though the batch's bookkeeping
        runs in one later callback.  Callers must keep stamped times
        non-decreasing (the ``receipt_times`` index is binary-searched).
        """
        now = self.sim.now if at_time is None else at_time
        self.sink_receipts.append(
            SinkReceipt(time=now, root_id=root_id, event_id=event_id, sink=sink,
                        root_emitted_at=root_emitted_at, replay_count=replay_count)
        )
        self.receipt_times.append(now)
        self._roots_received.add(root_id)

    # ----------------------------------------------------------- bulk appends
    def extend_emits(
        self,
        times: Sequence[float],
        root_ids: Sequence[int],
        source: str,
        replay_count: int = 0,
        from_backlog: bool = False,
    ) -> None:
        """Bulk-append one source's fresh emission cohort.

        ``times`` must be non-decreasing and start at or after the last
        recorded emit time; ``root_ids`` must be first emissions (the batch
        stepper reserves fresh ids per cohort).  Accepts any sequence,
        including numpy arrays — values are normalized to Python scalars so
        materialized records are indistinguishable from per-event recording.
        """
        times_l = _as_list(times)
        roots_l = _as_list(root_ids)
        self.source_emits.extend(
            SourceEmit(time=t, root_id=rid, source=source,
                       replay_count=replay_count, from_backlog=from_backlog)
            for t, rid in zip(times_l, roots_l)
        )
        self.emit_times.extend(times_l)
        if replay_count > 0:
            self.replay_emits += len(times_l)
        self._root_first_emit.update(zip(roots_l, times_l))

    def extend_receipts(
        self,
        times: Sequence[float],
        root_ids: Sequence[int],
        event_ids: Sequence[int],
        sinks: Any,
        root_emitted_ats: Sequence[float],
        replay_count: int = 0,
        sink_indices: Optional[Sequence[int]] = None,
    ) -> None:
        """Bulk-append sink receipts already sorted by time.

        ``sinks`` is a single sink name applied to every record, or — when
        ``sink_indices`` is given — a list of names indexed per record.
        """
        times_l = _as_list(times)
        roots_l = _as_list(root_ids)
        eids_l = _as_list(event_ids)
        emitted_l = _as_list(root_emitted_ats)
        if sink_indices is None:
            records = [
                SinkReceipt(time=t, root_id=rid, event_id=eid, sink=sinks,
                            root_emitted_at=emitted, replay_count=replay_count)
                for t, rid, eid, emitted in zip(times_l, roots_l, eids_l, emitted_l)
            ]
        else:
            which_l = _as_list(sink_indices)
            records = [
                SinkReceipt(time=t, root_id=rid, event_id=eid, sink=sinks[w],
                            root_emitted_at=emitted, replay_count=replay_count)
                for t, rid, eid, emitted, w in zip(times_l, roots_l, eids_l, emitted_l, which_l)
            ]
        self.sink_receipts.extend(records)
        self.receipt_times.extend(times_l)
        self._roots_received.update(roots_l)

    def record_drop(self, executor_id: str, kind: str, reason: str, root_id: Optional[int] = None) -> None:
        """Record that an event could not be delivered to an executor."""
        self.drops.append(
            DropRecord(time=self.sim.now, executor_id=executor_id, kind=kind, reason=reason, root_id=root_id)
        )

    def record_deferred(self, executor_id: str, root_id: Optional[int] = None) -> None:
        """Record that the transport is holding a data event for a restarting executor."""
        self.deferred.append(DeferredRecord(time=self.sim.now, executor_id=executor_id, root_id=root_id))

    def record_kill(self, executor_id: str, queued_events_lost: int, pending_events_lost: int = 0) -> None:
        """Record an executor kill and the in-flight events lost with it."""
        self.kills.append(
            KillRecord(time=self.sim.now, executor_id=executor_id,
                       queued_events_lost=queued_events_lost, pending_events_lost=pending_events_lost)
        )

    def record_lifecycle(self, executor_id: str, status: str) -> None:
        """Record an executor lifecycle transition."""
        self.lifecycle.append(LifecycleRecord(time=self.sim.now, executor_id=executor_id, status=status))

    # ---------------------------------------------------------------- queries
    def root_first_emit_time(self, root_id: int) -> Optional[float]:
        """Time at which the given root event was first emitted, if known."""
        return self._root_first_emit.get(root_id)

    def is_old_root(self, root_id: int, migration_time: float) -> bool:
        """Whether the root was first emitted before the migration request."""
        first = self._root_first_emit.get(root_id)
        return first is not None and first < migration_time

    def receipts_after(self, time: float) -> List[SinkReceipt]:
        """Sink receipts at or after the given time, in time order."""
        return self.sink_receipts[bisect_left(self.receipt_times, time):]

    def receipts_between(self, start: float, end: float) -> List[SinkReceipt]:
        """Sink receipts in ``[start, end)``."""
        times = self.receipt_times
        return self.sink_receipts[bisect_left(times, start):bisect_left(times, end)]

    def emits_between(self, start: float, end: float) -> List[SourceEmit]:
        """Source emissions in ``[start, end)``."""
        times = self.emit_times
        return self.source_emits[bisect_left(times, start):bisect_left(times, end)]

    def first_receipt_after(self, time: float) -> Optional[SinkReceipt]:
        """Earliest sink receipt at or after the given time, if any."""
        index = bisect_left(self.receipt_times, time)
        return self.sink_receipts[index] if index < len(self.sink_receipts) else None

    def last_old_receipt(self, migration_time: float) -> Optional[SinkReceipt]:
        """Latest sink receipt (after migration) of a root emitted before the migration.

        Walks backwards from the end of the (time-ordered) receipt list and
        stops at the first old-root receipt, instead of filtering the whole
        log.  Among equal-time candidates the *earliest-recorded* one is
        returned, matching the historical ``max(..., key=time)`` behaviour
        (``max`` keeps the first of ties in iteration order).
        """
        receipts = self.sink_receipts
        start = bisect_left(self.receipt_times, migration_time)
        for index in range(len(receipts) - 1, start - 1, -1):
            receipt = receipts[index]
            if self.is_old_root(receipt.root_id, migration_time):
                best = receipt
                for prior_index in range(index - 1, start - 1, -1):
                    prior = receipts[prior_index]
                    if prior.time != best.time:
                        break
                    if self.is_old_root(prior.root_id, migration_time):
                        best = prior
                return best
        return None

    def last_replay_receipt(self, migration_time: float) -> Optional[SinkReceipt]:
        """Latest sink receipt of a replayed (previously failed) event after the migration.

        Same backward walk and tie handling as :meth:`last_old_receipt`.
        """
        receipts = self.sink_receipts
        start = bisect_left(self.receipt_times, migration_time)
        for index in range(len(receipts) - 1, start - 1, -1):
            receipt = receipts[index]
            if receipt.replay_count > 0:
                best = receipt
                for prior_index in range(index - 1, start - 1, -1):
                    prior = receipts[prior_index]
                    if prior.time != best.time:
                        break
                    if prior.replay_count > 0:
                        best = prior
                return best
        return None

    def lost_in_kills(self) -> int:
        """Total number of queued events lost across all executor kills."""
        return sum(k.queued_events_lost for k in self.kills)

    def dropped_count(self, kind: Optional[str] = None) -> int:
        """Number of dropped deliveries, optionally filtered by event kind."""
        if kind is None:
            return len(self.drops)
        return sum(1 for d in self.drops if d.kind == kind)

    def deferred_count(self) -> int:
        """Number of data events the transport held for restarting executors."""
        return len(self.deferred)

    def distinct_roots_received(self) -> int:
        """Number of distinct root events observed at the sinks.

        Maintained incrementally at record time (a set-size read, not a scan).
        """
        return len(self._roots_received)

    def summary(self) -> Dict[str, float]:
        """Coarse counters describing the run (useful in example output)."""
        return {
            "source_emits": len(self.source_emits),
            "replay_emits": self.replay_emits,
            "sink_receipts": len(self.sink_receipts),
            "distinct_roots_received": self.distinct_roots_received(),
            "drops": len(self.drops),
            "kills": len(self.kills),
            "events_lost_in_kills": self.lost_in_kills(),
        }


# --------------------------------------------------------------------------
# Columnar backend
# --------------------------------------------------------------------------

class _Column:
    """One growable numpy column (amortized-doubling append buffer)."""

    __slots__ = ("data", "n")

    def __init__(self, dtype, capacity: int = 256) -> None:
        self.data = _np.empty(capacity, dtype=dtype)
        self.n = 0

    def view(self):
        """The live prefix of the buffer (zero-copy)."""
        return self.data[: self.n]

    def _grow(self, need: int) -> None:
        capacity = len(self.data)
        while capacity < need:
            capacity *= 2
        grown = _np.empty(capacity, dtype=self.data.dtype)
        grown[: self.n] = self.data[: self.n]
        self.data = grown

    def append(self, value) -> None:
        if self.n == len(self.data):
            self._grow(self.n + 1)
        self.data[self.n] = value
        self.n += 1

    def extend(self, values) -> None:
        arr = _np.asarray(values, dtype=self.data.dtype)
        need = self.n + arr.size
        if need > len(self.data):
            self._grow(need)
        self.data[self.n:need] = arr
        self.n = need

    def extend_fill(self, value, count: int) -> None:
        need = self.n + count
        if need > len(self.data):
            self._grow(need)
        self.data[self.n:need] = value
        self.n = need


class _TimesView(Sequence):
    """List-compatible lazy view over a float column.

    Supports everything the classic ``List[float]`` indexes are used for:
    ``bisect`` (``len`` + integer ``__getitem__``), slicing (returns a plain
    list of Python floats), iteration, and ``==`` against lists and other
    views (several tests and metrics compare whole time arrays).
    """

    __slots__ = ("_column",)

    def __init__(self, column: _Column) -> None:
        self._column = column

    def __len__(self) -> int:
        return self._column.n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._column.view()[index].tolist()
        n = self._column.n
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("time index out of range")
        return float(self._column.data[index])

    def __iter__(self):
        return iter(self._column.view().tolist())

    def __eq__(self, other):
        if isinstance(other, _TimesView):
            other = other.tolist()
        if isinstance(other, (list, tuple)):
            return self._column.view().tolist() == list(other)
        return NotImplemented

    __hash__ = None  # mutable view, like the list it replaces

    def __repr__(self) -> str:
        return repr(self._column.view().tolist())

    def tolist(self) -> List[float]:
        return self._column.view().tolist()


class _RowsView(Sequence):
    """Base for lazy record views: materializes dataclass rows on access."""

    __slots__ = ("_log",)

    def __init__(self, log: "ColumnarEventLog") -> None:
        self._log = log

    def _materialize(self, start: int, stop: int) -> List:
        raise NotImplementedError

    def _make(self, index: int):
        raise NotImplementedError

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                return self._materialize(start, stop)
            return [self._make(i) for i in range(start, stop, step)]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("record index out of range")
        return self._make(index)

    def __iter__(self):
        return iter(self._materialize(0, len(self)))

    def __eq__(self, other):
        if isinstance(other, _RowsView):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return self._materialize(0, len(self)) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} records>"


class _EmitRowsView(_RowsView):
    __slots__ = ()

    def __len__(self) -> int:
        return self._log._emit_time.n

    def _make(self, index: int) -> SourceEmit:
        log = self._log
        return SourceEmit(
            time=float(log._emit_time.data[index]),
            root_id=int(log._emit_root.data[index]),
            source=log._names[log._emit_source.data[index]],
            replay_count=int(log._emit_replay.data[index]),
            from_backlog=bool(log._emit_backlog.data[index]),
        )

    def _materialize(self, start: int, stop: int) -> List[SourceEmit]:
        log = self._log
        names = log._names
        return [
            SourceEmit(time=t, root_id=rid, source=names[code],
                       replay_count=replay, from_backlog=bool(backlog))
            for t, rid, code, replay, backlog in zip(
                log._emit_time.data[start:stop].tolist(),
                log._emit_root.data[start:stop].tolist(),
                log._emit_source.data[start:stop].tolist(),
                log._emit_replay.data[start:stop].tolist(),
                log._emit_backlog.data[start:stop].tolist(),
            )
        ]


class _ReceiptRowsView(_RowsView):
    __slots__ = ()

    def __len__(self) -> int:
        return self._log._receipt_time.n

    def _make(self, index: int) -> SinkReceipt:
        log = self._log
        return SinkReceipt(
            time=float(log._receipt_time.data[index]),
            root_id=int(log._receipt_root.data[index]),
            event_id=int(log._receipt_event.data[index]),
            sink=log._names[log._receipt_sink.data[index]],
            root_emitted_at=float(log._receipt_emitted.data[index]),
            replay_count=int(log._receipt_replay.data[index]),
        )

    def _materialize(self, start: int, stop: int) -> List[SinkReceipt]:
        log = self._log
        names = log._names
        return [
            SinkReceipt(time=t, root_id=rid, event_id=eid, sink=names[code],
                        root_emitted_at=emitted, replay_count=replay)
            for t, rid, eid, code, emitted, replay in zip(
                log._receipt_time.data[start:stop].tolist(),
                log._receipt_root.data[start:stop].tolist(),
                log._receipt_event.data[start:stop].tolist(),
                log._receipt_sink.data[start:stop].tolist(),
                log._receipt_emitted.data[start:stop].tolist(),
                log._receipt_replay.data[start:stop].tolist(),
            )
        ]


class ColumnarEventLog(EventLog):
    """Struct-of-arrays event log, bit-compatible with :class:`EventLog`.

    Emits and receipts live in growable numpy columns; ``source_emits``,
    ``sink_receipts`` and the time indexes are lazy views that materialize
    rows only on access.  The root-first-emit map and distinct-roots set are
    built lazily from the columns the first time a query needs them (and then
    advanced incrementally), so the bulk write path never touches a Python
    dict per event.  Cold streams (drops, deferred, kills, lifecycle) keep
    the plain record lists — they are rare and carry string payloads.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.drops: List[DropRecord] = []
        self.deferred: List[DeferredRecord] = []
        self.kills: List[KillRecord] = []
        self.lifecycle: List[LifecycleRecord] = []
        self.replay_emits: int = 0
        # Interned task-name table shared by the source and sink columns.
        self._names: List[str] = []
        self._name_codes: Dict[str, int] = {}
        # Emit columns.
        self._emit_time = _Column(_np.float64)
        self._emit_root = _Column(_np.int64)
        self._emit_source = _Column(_np.int32)
        self._emit_replay = _Column(_np.int64)
        self._emit_backlog = _Column(_np.bool_)
        # Receipt columns.
        self._receipt_time = _Column(_np.float64)
        self._receipt_root = _Column(_np.int64)
        self._receipt_event = _Column(_np.int64)
        self._receipt_sink = _Column(_np.int32)
        self._receipt_emitted = _Column(_np.float64)
        self._receipt_replay = _Column(_np.int64)
        # Lazy query state: scan cursors mark how far into the columns the
        # derived structures have been synced.
        self._first_emit_map: Dict[int, float] = {}
        self._first_emit_synced = 0
        self._roots_received_set: Set[int] = set()
        self._roots_synced = 0
        # Lazy row/time views shadow the base class's list attributes.
        self.source_emits = _EmitRowsView(self)  # type: ignore[assignment]
        self.sink_receipts = _ReceiptRowsView(self)  # type: ignore[assignment]
        self.emit_times = _TimesView(self._emit_time)  # type: ignore[assignment]
        self.receipt_times = _TimesView(self._receipt_time)  # type: ignore[assignment]

    # ------------------------------------------------------------- internals
    def _code(self, name: str) -> int:
        code = self._name_codes.get(name)
        if code is None:
            code = len(self._names)
            self._name_codes[name] = code
            self._names.append(name)
        return code

    @property
    def _root_first_emit(self) -> Dict[int, float]:
        n = self._emit_time.n
        if self._first_emit_synced < n:
            roots = self._emit_root.data[self._first_emit_synced:n][::-1].tolist()
            times = self._emit_time.data[self._first_emit_synced:n][::-1].tolist()
            # Reversed zip keeps the *earliest* occurrence per root within the
            # new block; entries already in the map win over the block.
            block = dict(zip(roots, times))
            block.update(self._first_emit_map)
            self._first_emit_map = block
            self._first_emit_synced = n
        return self._first_emit_map

    @_root_first_emit.setter
    def _root_first_emit(self, value: Dict[int, float]) -> None:
        self._first_emit_map = value

    @property
    def _roots_received(self) -> Set[int]:
        n = self._receipt_time.n
        if self._roots_synced < n:
            self._roots_received_set.update(
                self._receipt_root.data[self._roots_synced:n].tolist()
            )
            self._roots_synced = n
        return self._roots_received_set

    @_roots_received.setter
    def _roots_received(self, value: Set[int]) -> None:
        self._roots_received_set = value

    # -------------------------------------------------------- array accessors
    @property
    def emit_times_array(self):
        """Emit times as a float64 array view (zero-copy, monotone)."""
        return self._emit_time.view()

    @property
    def receipt_times_array(self):
        """Receipt times as a float64 array view (zero-copy, monotone)."""
        return self._receipt_time.view()

    @property
    def receipt_emitted_array(self):
        """Per-receipt root emission times (parallel to the receipt times)."""
        return self._receipt_emitted.view()

    # -------------------------------------------------------------- recording
    def record_source_emit(
        self,
        root_id: int,
        source: str,
        replay_count: int = 0,
        from_backlog: bool = False,
        at_time: Optional[float] = None,
    ) -> None:
        now = self.sim.now if at_time is None else at_time
        self._emit_time.append(now)
        self._emit_root.append(root_id)
        self._emit_source.append(self._code(source))
        self._emit_replay.append(replay_count)
        self._emit_backlog.append(from_backlog)
        if replay_count > 0:
            self.replay_emits += 1

    def record_sink_receipt(
        self,
        root_id: int,
        event_id: int,
        sink: str,
        root_emitted_at: float,
        replay_count: int,
        at_time: Optional[float] = None,
    ) -> None:
        now = self.sim.now if at_time is None else at_time
        self._receipt_time.append(now)
        self._receipt_root.append(root_id)
        self._receipt_event.append(event_id)
        self._receipt_sink.append(self._code(sink))
        self._receipt_emitted.append(root_emitted_at)
        self._receipt_replay.append(replay_count)

    # ----------------------------------------------------------- bulk appends
    def extend_emits(
        self,
        times: Sequence[float],
        root_ids: Sequence[int],
        source: str,
        replay_count: int = 0,
        from_backlog: bool = False,
    ) -> None:
        before = self._emit_time.n
        self._emit_time.extend(times)
        count = self._emit_time.n - before
        self._emit_root.extend(root_ids)
        self._emit_source.extend_fill(self._code(source), count)
        self._emit_replay.extend_fill(replay_count, count)
        self._emit_backlog.extend_fill(from_backlog, count)
        if replay_count > 0:
            self.replay_emits += count

    def extend_receipts(
        self,
        times: Sequence[float],
        root_ids: Sequence[int],
        event_ids: Sequence[int],
        sinks: Any,
        root_emitted_ats: Sequence[float],
        replay_count: int = 0,
        sink_indices: Optional[Sequence[int]] = None,
    ) -> None:
        before = self._receipt_time.n
        self._receipt_time.extend(times)
        count = self._receipt_time.n - before
        self._receipt_root.extend(root_ids)
        self._receipt_event.extend(event_ids)
        if sink_indices is None:
            self._receipt_sink.extend_fill(self._code(sinks), count)
        else:
            codes = _np.asarray([self._code(name) for name in sinks], dtype=_np.int32)
            self._receipt_sink.extend(codes[_np.asarray(sink_indices)])
        self._receipt_emitted.extend(root_emitted_ats)
        self._receipt_replay.extend_fill(replay_count, count)


def log_digest(log: EventLog) -> str:
    """Stable content hash of a log's emission/receipt records.

    Floats are rendered with ``repr`` (shortest round-trip form), so two logs
    share a digest iff every record field is bit-identical — which is how the
    classic and columnar backends, and the classic and batch-stepped kernels,
    are checked against each other.  Columnar logs are hashed straight from
    their columns (``tolist`` yields the same native floats/ints the records
    would carry), skipping row materialization.
    """
    hasher = hashlib.sha256()
    if isinstance(log, ColumnarEventLog):
        names = log._names
        emits = zip(
            log._emit_time.view().tolist(),
            log._emit_root.view().tolist(),
            [names[code] for code in log._emit_source.view().tolist()],
            log._emit_replay.view().tolist(),
            log._emit_backlog.view().tolist(),
        )
        receipts = zip(
            log._receipt_time.view().tolist(),
            log._receipt_root.view().tolist(),
            log._receipt_event.view().tolist(),
            [names[code] for code in log._receipt_sink.view().tolist()],
            log._receipt_emitted.view().tolist(),
            log._receipt_replay.view().tolist(),
        )
    else:
        emits = (
            (e.time, e.root_id, e.source, e.replay_count, e.from_backlog)
            for e in log.source_emits
        )
        receipts = (
            (r.time, r.root_id, r.event_id, r.sink, r.root_emitted_at, r.replay_count)
            for r in log.sink_receipts
        )
    for time, root, source, replay, backlog in emits:
        hasher.update(f"E {time!r} {root} {source} {replay} {int(backlog)}\n".encode("utf-8"))
    for time, root, event, sink, emitted, replay in receipts:
        hasher.update(
            f"R {time!r} {root} {event} {sink} {emitted!r} {replay}\n".encode("utf-8")
        )
    return hasher.hexdigest()
