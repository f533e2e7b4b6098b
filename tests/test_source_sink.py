"""Unit tests for source executors (rate, pause, backlog, replay, throttle) and sinks."""

from __future__ import annotations

import pytest

from tests.conftest import make_runtime, tiny_dataflow


def started_runtime(strategy="dcr", seed=7):
    runtime = make_runtime(strategy=strategy, seed=seed)
    runtime.start()
    return runtime


class TestSourceRate:
    def test_emission_rate_matches_configuration(self):
        runtime = started_runtime()
        runtime.sim.run(until=10.0)
        source = runtime.source_executors[0]
        # 10 ev/s for 10 s of simulated time.
        assert source.emitted_count == pytest.approx(100, abs=2)

    def test_emissions_are_logged(self):
        runtime = started_runtime()
        runtime.sim.run(until=5.0)
        assert len(runtime.log.source_emits) == runtime.source_executors[0].emitted_count

    def test_stop_halts_generation(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.stop_sources()
        emitted = runtime.source_executors[0].emitted_count
        runtime.sim.run(until=5.0)
        assert runtime.source_executors[0].emitted_count == emitted


class TestPauseAndBacklog:
    def test_pause_stops_emission_and_builds_backlog(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        source = runtime.source_executors[0]
        emitted_at_pause = source.emitted_count
        runtime.sim.run(until=5.0)
        assert source.emitted_count == emitted_at_pause
        assert source.backlog_size == pytest.approx(30, abs=2)

    def test_unpause_drains_backlog(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        runtime.sim.run(until=4.0)
        source = runtime.source_executors[0]
        backlog = source.backlog_size
        assert backlog > 0
        runtime.unpause_sources()
        runtime.sim.run(until=6.0)
        assert source.backlog_size == 0
        backlog_emits = [e for e in runtime.log.source_emits if e.from_backlog]
        assert len(backlog_emits) >= backlog

    def test_backlog_drains_faster_than_nominal_rate(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        runtime.sim.run(until=6.0)
        runtime.unpause_sources()
        runtime.sim.run(until=7.0)
        # 40 backlogged events must drain within roughly a second at the burst
        # rate (200 ev/s in the fast test config), far above the 10 ev/s rate.
        emits_in_burst = runtime.log.emits_between(6.0, 7.0)
        assert len(emits_in_burst) > 20

    def test_unpause_without_pause_is_a_noop(self):
        runtime = started_runtime()
        runtime.sim.run(until=1.0)
        runtime.unpause_sources()
        runtime.sim.run(until=2.0)
        assert runtime.source_executors[0].emitted_count == pytest.approx(20, abs=2)


class TestReplayAndThrottle:
    def test_failed_roots_are_replayed_when_acking_enabled(self):
        runtime = started_runtime(strategy="dsm")
        runtime.sim.run(until=2.0)
        # Kill a middle task so downstream trees cannot complete.
        runtime.executor("b#0").kill()
        runtime.executor("b#1").kill()
        runtime.sim.run(until=12.0)  # past the 5 s fast ack timeout
        replays = [e for e in runtime.log.source_emits if e.replay_count > 0]
        assert replays
        assert runtime.source_executors[0].replayed_count == len(replays)

    def test_no_replays_without_acking(self):
        runtime = started_runtime(strategy="dcr")
        runtime.sim.run(until=2.0)
        runtime.executor("b#0").kill()
        runtime.executor("b#1").kill()
        runtime.sim.run(until=12.0)
        assert runtime.log.replay_emits == 0

    def test_completed_roots_are_dropped_from_replay_cache(self):
        runtime = started_runtime(strategy="dsm")
        runtime.sim.run(until=5.0)
        source = runtime.source_executors[0]
        # All roots processed end-to-end should have been acked and evicted;
        # only the most recent in-flight ones may remain cached.
        assert len(source._cache) < 10

    def test_max_spout_pending_throttles_emission(self):
        runtime = started_runtime(strategy="dsm")
        runtime.reliability.max_spout_pending = 10
        runtime.sim.run(until=1.0)
        # Break the dataflow so nothing acks; pending grows to the small cap.
        runtime.executor("a#0").kill()
        runtime.sim.run(until=4.9)  # before the 5 s ack timeout fires
        assert runtime.acker.pending_count <= 10
        source = runtime.source_executors[0]
        # The throttle is work-conserving: throttled ticks go to the backlog.
        assert source.backlog_size > 0
        assert source.emitted_count < 49

    def test_replay_preserves_root_identity(self):
        runtime = started_runtime(strategy="dsm")
        runtime.sim.run(until=2.0)
        runtime.executor("b#0").kill()
        runtime.executor("b#1").kill()
        runtime.sim.run(until=12.0)
        replays = [e for e in runtime.log.source_emits if e.replay_count > 0]
        first_emits = {e.root_id for e in runtime.log.source_emits if e.replay_count == 0}
        assert all(r.root_id in first_emits for r in replays)


class TestSink:
    def test_sink_records_latency_relative_to_emission(self):
        runtime = started_runtime()
        runtime.sim.run(until=5.0)
        for receipt in runtime.log.sink_receipts:
            assert receipt.latency_s > 0.0
            assert receipt.time > receipt.root_emitted_at

    def test_sink_receives_every_root_exactly_once_in_steady_state(self):
        runtime = started_runtime()
        runtime.sim.run(until=10.0)
        roots_received = [r.root_id for r in runtime.log.sink_receipts]
        assert len(roots_received) == len(set(roots_received))
