"""Equivalence tests for the EventLog backends and single-pass timelines.

The fast-path overhaul replaced the EventLog's linear scans with binary
searches over parallel monotone time arrays, and gave the timelines a
single-pass binning path; the columnar overhaul then moved the whole record
store into numpy arrays behind the same query API.  These tests pin both
backends to naive reference implementations (the seed's original list
comprehensions) and to each other on

* a recorded Grid steady-state run,
* a recorded closed-loop elastic run (migrations, replays, kills), and
* synthetic logs exercising empty windows, exact-boundary windows and
  equal-time ties,

asserting byte-identical results everywhere — including
:func:`~repro.metrics.log.log_digest` equality between the classic and
columnar backends for every recorded scenario.
"""

from __future__ import annotations

import math

import pytest

from repro.dataflow import topologies
from repro.dataflow.event import reset_event_ids
from repro.core.strategy import strategy_by_name
from repro.engine.runtime import TopologyRuntime
from repro.experiments.elastic import run_elastic_experiment
from repro.metrics.log import ColumnarEventLog, EventLog, log_digest
from repro.metrics.timeline import RatePoint, latency_timeline, rate_timeline
from repro.sim import Simulator

from tests.conftest import build_cluster, fast_config

#: Log backends under test.
BACKENDS = ["classic", "columnar"]


# ----------------------------------------------------------- naive references
def naive_receipts_after(log, time):
    return [r for r in log.sink_receipts if r.time >= time]


def naive_receipts_between(log, start, end):
    return [r for r in log.sink_receipts if start <= r.time < end]


def naive_emits_between(log, start, end):
    return [e for e in log.source_emits if start <= e.time < end]


def naive_first_receipt_after(log, time):
    candidates = naive_receipts_after(log, time)
    return min(candidates, key=lambda r: r.time) if candidates else None


def naive_last_old_receipt(log, migration_time):
    old = [
        r
        for r in log.sink_receipts
        if r.time >= migration_time and log.is_old_root(r.root_id, migration_time)
    ]
    return max(old, key=lambda r: r.time) if old else None


def naive_last_replay_receipt(log, migration_time):
    replays = [r for r in log.sink_receipts if r.time >= migration_time and r.replay_count > 0]
    return max(replays, key=lambda r: r.time) if replays else None


def naive_distinct_roots_received(log):
    return len({r.root_id for r in log.sink_receipts})


def naive_bin_rates(times, start, end, bin_s):
    if end <= start or bin_s <= 0:
        return []
    num_bins = int(math.ceil((end - start) / bin_s))
    counts = [0] * num_bins
    for t in times:
        if start <= t < end:
            counts[int((t - start) / bin_s)] += 1
    return [
        RatePoint(time=start + (i + 0.5) * bin_s, rate=count / bin_s)
        for i, count in enumerate(counts)
    ]


def naive_rate_timeline(log, kind, start, end, bin_s):
    times = [e.time for e in log.source_emits] if kind == "input" else [r.time for r in log.sink_receipts]
    return naive_bin_rates(times, start, end if end is not None else log.sim.now, bin_s)


def naive_latency_timeline(log, start, end, window_s):
    if end is None:
        end = log.sim.now
    if end <= start or window_s <= 0:
        return []
    num_windows = int(math.ceil((end - start) / window_s))
    sums = [0.0] * num_windows
    counts = [0] * num_windows
    for receipt in log.sink_receipts:
        if start <= receipt.time < end:
            index = int((receipt.time - start) / window_s)
            sums[index] += receipt.latency_s
            counts[index] += 1
    return [
        (start + (i + 0.5) * window_s, sums[i] / counts[i], counts[i])
        for i in range(num_windows)
        if counts[i]
    ]


# ------------------------------------------------------------------ fixtures
def _grid_log(columnar: bool):
    """Event log of a 60 s Grid steady-state run (no migrations)."""
    # Root/event ids are process-global; restart them so the classic and
    # columnar runs see identical id streams (digests hash the ids).
    reset_event_ids()
    sim = Simulator()
    cluster = build_cluster(sim, worker_vms=11)
    config = fast_config("dcr")
    config.columnar_log = columnar
    runtime = TopologyRuntime(topologies.grid(), cluster, sim=sim, config=config)
    runtime.deploy()
    runtime.start()
    sim.run(until=60.0)
    return runtime.log


def _elastic_log(columnar: bool):
    """Event log of a closed-loop elastic run (migration, kills, replays).

    The config is passed explicitly so the classic and columnar runs differ
    in nothing but the log backend.
    """
    config = strategy_by_name("dsm").runtime_config(seed=11)
    config.columnar_log = columnar
    result = run_elastic_experiment(
        dag="traffic", strategy="dsm", profile="surge", duration_s=300.0,
        seed=11, config=config,
    )
    return result.log


@pytest.fixture(scope="module")
def grid_log():
    return _grid_log(columnar=False)


@pytest.fixture(scope="module")
def grid_log_columnar():
    return _grid_log(columnar=True)


@pytest.fixture(scope="module")
def elastic_log():
    return _elastic_log(columnar=False)


@pytest.fixture(scope="module")
def elastic_log_columnar():
    return _elastic_log(columnar=True)


def interesting_times(log):
    """Query times covering empty, boundary and mid-run windows."""
    end = log.sim.now
    times = [0.0, -5.0, end, end + 10.0, end / 2, end / 3]
    if log.receipt_times:
        first = log.receipt_times[0]
        last = log.receipt_times[-1]
        # Exact record times probe the inclusive/exclusive boundaries.
        times += [first, last, (first + last) / 2.0]
    return times


LOG_FIXTURES = [
    "grid_log", "grid_log_columnar",
    "elastic_log", "elastic_log_columnar",
]


# ---------------------------------------------------------------- log queries
@pytest.mark.parametrize("log_fixture", LOG_FIXTURES)
class TestIndexedQueriesMatchNaive:
    def test_receipts_after(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for t in interesting_times(log):
            assert log.receipts_after(t) == naive_receipts_after(log, t)

    def test_receipts_between(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        times = interesting_times(log)
        for start in times:
            for width in (0.0, 0.5, 10.0, 1e9):
                assert log.receipts_between(start, start + width) == naive_receipts_between(
                    log, start, start + width
                )
        # Inverted window: empty either way.
        assert log.receipts_between(50.0, 10.0) == naive_receipts_between(log, 50.0, 10.0) == []

    def test_emits_between(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for start in interesting_times(log):
            assert log.emits_between(start, start + 10.0) == naive_emits_between(log, start, start + 10.0)

    def test_first_receipt_after(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for t in interesting_times(log):
            assert log.first_receipt_after(t) == naive_first_receipt_after(log, t)

    def test_last_old_receipt(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for t in interesting_times(log):
            assert log.last_old_receipt(t) == naive_last_old_receipt(log, t)

    def test_last_replay_receipt(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for t in interesting_times(log):
            assert log.last_replay_receipt(t) == naive_last_replay_receipt(log, t)

    def test_distinct_roots_received(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        assert log.distinct_roots_received() == naive_distinct_roots_received(log)

    def test_time_arrays_parallel_to_records(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        assert log.receipt_times == [r.time for r in log.sink_receipts]
        assert log.emit_times == [e.time for e in log.source_emits]
        assert list(log.receipt_times) == sorted(log.receipt_times)
        assert list(log.emit_times) == sorted(log.emit_times)


# ------------------------------------------------------------------ timelines
@pytest.mark.parametrize("log_fixture", LOG_FIXTURES)
class TestTimelinesMatchNaive:
    def test_rate_timeline(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for kind in ("input", "output"):
            for start, end, bin_s in [
                (0.0, None, 1.0),
                (0.0, None, 5.0),
                (30.0, 60.0, 2.5),
                (59.9, 60.0, 0.05),
                (0.0, 0.0, 1.0),   # empty window
                (80.0, 20.0, 1.0),  # inverted window
            ]:
                assert rate_timeline(log, kind=kind, start=start, end=end, bin_s=bin_s) == \
                    naive_rate_timeline(log, kind, start, end, bin_s)

    def test_latency_timeline(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for start, end, window_s in [(0.0, None, 10.0), (25.0, 55.0, 5.0), (0.0, 0.0, 10.0)]:
            points = latency_timeline(log, start=start, end=end, window_s=window_s)
            assert [(p.time, p.latency_s, p.samples) for p in points] == \
                naive_latency_timeline(log, start, end, window_s)


# ------------------------------------------- classic vs columnar byte identity
class TestBackendByteIdentity:
    """The columnar backend must be indistinguishable from the classic one.

    ``log_digest`` hashes every record field with ``repr`` semantics, so
    digest equality is byte-level equivalence of the full record streams.
    """

    def test_grid_digest(self, grid_log, grid_log_columnar):
        assert log_digest(grid_log_columnar) == log_digest(grid_log)

    def test_elastic_digest(self, elastic_log, elastic_log_columnar):
        assert log_digest(elastic_log_columnar) == log_digest(elastic_log)

    def test_grid_records_compare_equal(self, grid_log, grid_log_columnar):
        assert list(grid_log_columnar.source_emits) == list(grid_log.source_emits)
        assert list(grid_log_columnar.sink_receipts) == list(grid_log.sink_receipts)
        assert grid_log_columnar.emit_times == grid_log.emit_times
        assert grid_log_columnar.receipt_times == grid_log.receipt_times

    def test_elastic_counters_match(self, elastic_log, elastic_log_columnar):
        assert elastic_log_columnar.replay_emits == elastic_log.replay_emits
        assert elastic_log_columnar.distinct_roots_received() == \
            elastic_log.distinct_roots_received()


# ----------------------------------------------------------- synthetic ties
class _Clock:
    def __init__(self) -> None:
        self.now = 0.0


def _make_log(backend: str, clock) -> EventLog:
    if backend == "columnar":
        return ColumnarEventLog(clock)  # type: ignore[arg-type]
    return EventLog(clock)  # type: ignore[arg-type]


def _tie_log(backend: str):
    """Three roots emitted before t=10, received in tied clusters after it."""
    clock = _Clock()
    log = _make_log(backend, clock)
    for root in (1, 2, 3):
        clock.now = float(root)
        log.record_source_emit(root_id=root, source="source")
    for now, root, replay in [(10.0, 1, 0), (10.0, 2, 1), (10.0, 3, 1), (12.0, 9, 0), (12.0, 2, 1)]:
        clock.now = now
        log.record_sink_receipt(root_id=root, event_id=root * 100 + int(now), sink="sink",
                                root_emitted_at=float(root), replay_count=replay)
    clock.now = 15.0
    return log


@pytest.mark.parametrize("backend", BACKENDS)
def test_tie_times_and_boundaries_synthetic(backend):
    """Equal-time records and exact-boundary queries match the naive scans."""
    log = _tie_log(backend)
    for t in (0.0, 1.0, 9.999, 10.0, 10.0000001, 12.0, 15.0, 20.0):
        assert log.receipts_after(t) == naive_receipts_after(log, t)
        assert log.first_receipt_after(t) == naive_first_receipt_after(log, t)
        assert log.last_old_receipt(t) == naive_last_old_receipt(log, t)
        assert log.last_replay_receipt(t) == naive_last_replay_receipt(log, t)
        assert log.receipts_between(t, 12.0) == naive_receipts_between(log, t, 12.0)
    assert log.distinct_roots_received() == naive_distinct_roots_received(log)


def test_tie_log_digests_identical():
    """Tied/boundary timestamps hash identically across backends."""
    assert log_digest(_tie_log("columnar")) == log_digest(_tie_log("classic"))


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_log_queries(backend):
    """All queries behave on a freshly created, empty log."""
    log = _make_log(backend, _Clock())
    assert log.receipts_after(0.0) == []
    assert log.receipts_between(0.0, 100.0) == []
    assert log.emits_between(0.0, 100.0) == []
    assert log.first_receipt_after(0.0) is None
    assert log.last_old_receipt(0.0) is None
    assert log.last_replay_receipt(0.0) is None
    assert log.distinct_roots_received() == 0
    assert rate_timeline(log, kind="output", end=10.0) == naive_rate_timeline(log, "output", 0.0, 10.0, 1.0)
    assert latency_timeline(log, end=10.0) == []
