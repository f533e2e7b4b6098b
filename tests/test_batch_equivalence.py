"""Batched-kernel equivalence vs the classic event loop.

The batch-stepping cascade (``RuntimeConfig.batch_stepping``) sweeps whole
steady-state stretches inside one kernel callback, vectorized over
struct-of-arrays.  Its contract: logs equivalent to the classic keyed kernel
*modulo event-id assignment order* — identical emission/receipt times,
sinks, latencies, executor counters and routed counts, with root identity
mapped through emission order.  Where the sweep declines (a dataflow that is
not vector-capable, a runtime that is not quiescent), the tick runs on the
classic per-event path, so those stretches are the classic keyed run exactly.

These tests pin the sweep against the classic loop on the Grid DAG — cold
runs and windowed runs whose window boundaries land mid-pipeline (exercising
the in-flight ingestion path, where the vectorized sweep adopts queued
deliveries and busy executors instead of declining) — and on a full
closed-loop elastic run with migrations.  They also cover the batch-mode
primitives the cascade is built on: ``Simulator.run_batched`` cohorts,
bit-identical block RNG draws, bulk event-id reservation and the fan-out
event pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataflow import topologies
from repro.dataflow.event import (
    Event,
    next_event_id,
    recycle_event,
    reserve_event_ids,
    reset_event_ids,
)
from repro.elastic import ControllerConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments import run_elastic_experiment
from repro.sim import Simulator
from repro.sim.rng import keyed_value, keyed_value_block
from repro.workloads import StepProfile

from tests.conftest import build_cluster, fast_config


# ------------------------------------------------------------------ builders
def build_grid(batch_stepping: bool):
    """A deployed Grid runtime with the keyed-jitter timing model."""
    reset_event_ids()
    sim = Simulator()
    cluster = build_cluster(sim, worker_vms=11)
    config = fast_config("dcr")
    config.keyed_network_jitter = True
    config.batch_stepping = batch_stepping
    runtime = TopologyRuntime(topologies.grid(), cluster, sim=sim, config=config)
    runtime.deploy()
    runtime.start()
    return sim, runtime


def run_windows(batch_stepping: bool, windows: int, step_s: float):
    """Run in fixed windows so boundaries land mid-pipeline (in-flight work)."""
    sim, runtime = build_grid(batch_stepping)
    for _ in range(windows):
        sim.run(until=sim.now + step_s)
    return sim, runtime


def fingerprint_modulo_ids(runtime: TopologyRuntime):
    """Everything observable about a run except event-id assignment order.

    Root identity is mapped through emission order, so two runs agree iff
    their logs match modulo the ids themselves.
    """
    log = runtime.log
    emission_order = {e.root_id: i for i, e in enumerate(log.source_emits)}
    emits = [(e.time, e.source, e.replay_count, e.from_backlog) for e in log.source_emits]
    receipts = sorted(
        (r.time, emission_order[r.root_id], r.sink, r.root_emitted_at, r.replay_count)
        for r in log.sink_receipts
    )
    counters = {
        executor_id: (
            executor.processed_count,
            round(executor.busy_time_s, 12),
            getattr(executor, "received_count", None),
            executor.state.get("processed") if executor.state else None,
            len(executor.input_queue),
            executor._busy,
        )
        for executor_id, executor in sorted(runtime.executors.items())
    }
    return emits, receipts, counters, runtime.router.routed_count


# ------------------------------------------------- grid: vectorized cascade
class TestVectorizedEquivalence:
    """Vectorized batch stepping == classic keyed kernel, modulo event ids."""

    @pytest.mark.parametrize(
        "windows,step_s",
        [(1, 10.0), (20, 0.5), (40, 0.25), (7, 1.3)],
        ids=["cold-10s", "20x0.5s", "40x0.25s", "7x1.3s"],
    )
    def test_grid_run_matches_classic(self, windows, step_s):
        _, classic = run_windows(False, windows, step_s)
        expected = fingerprint_modulo_ids(classic)
        _, batched = run_windows(True, windows, step_s)
        assert fingerprint_modulo_ids(batched) == expected

    def test_windowed_run_cascades_every_window(self):
        # Window boundaries leave deliveries and busy executors in flight at
        # every resume; the in-flight ingestion must re-engage the vectorized
        # sweep each window rather than falling back to classic stepping.
        _, runtime = run_windows(True, 20, 0.5)
        stepper = runtime.batch_stepper
        assert stepper.vector_cascades >= 20
        assert stepper.inline_events > 0

    def test_cold_run_is_mostly_inline(self):
        _, runtime = run_windows(True, 1, 10.0)
        stepper = runtime.batch_stepper
        assert stepper.vector_cascades >= 1
        # The steady-state stretch dominates: nearly all events bypass the heap.
        assert stepper.inline_events > 10 * len(runtime.log.source_emits)


# --------------------------------------------------------------- elastic run
class TestElasticEquivalence:
    """Batched mode survives a full closed-loop run: profile-driven sources,
    migrations (the cascade must disengage around protocol activity and
    re-engage after), backlog drains — logs and scaling decisions identical
    to the classic keyed kernel modulo event ids."""

    def run_elastic(self, batch_stepping: bool):
        config = fast_config("ccr", seed=11)
        config.keyed_network_jitter = True
        config.batch_stepping = batch_stepping
        return run_elastic_experiment(
            dag="traffic",
            strategy="ccr",
            profile=StepProfile(steps=[(0.0, 8.0), (60.0, 24.0), (140.0, 8.0)]),
            duration_s=220.0,
            seed=11,
            dataflow=topologies.traffic(latency_s=0.02),
            config=config,
            controller_config=ControllerConfig(
                check_interval_s=5.0, confirm_samples=2, cooldown_s=30.0
            ),
            provisioning_latency_s=2.0,
        )

    @staticmethod
    def fingerprint(result):
        log = result.log
        emission_order = {e.root_id: i for i, e in enumerate(log.source_emits)}
        emits = [(e.time, e.source, e.replay_count, e.from_backlog) for e in log.source_emits]
        receipts = sorted(
            (r.time, emission_order[r.root_id], r.sink, r.root_emitted_at, r.replay_count)
            for r in log.sink_receipts
        )
        actions = [
            (a.direction, a.from_tier, a.to_tier, a.decided_at, a.enacted_at, a.completed_at)
            for a in result.actions
        ]
        return emits, receipts, actions

    def test_elastic_run_matches_classic(self):
        expected = self.fingerprint(self.run_elastic(False))
        batched_result = self.run_elastic(True)
        assert self.fingerprint(batched_result) == expected
        # The cascade actually carried the run (not a silent classic fallback).
        assert batched_result.runtime.batch_stepper.vector_cascades > 0


# ----------------------------------------------------- run_batched() cohorts
class TestRunBatchedCohorts:
    def test_consecutive_same_time_entries_form_one_cohort(self):
        sim = Simulator()
        seen = []
        sim.register_batch_handler(seen.append, lambda time, cohort: seen.append((time, cohort)))
        for value in ("a", "b", "c"):
            sim.schedule_at_fast(1.0, seen.append, (value,))
        sim.schedule_at_fast(2.0, seen.append, ("d",))
        sim.run_batched()
        assert seen == [(1.0, [("a",), ("b",), ("c",)]), (2.0, [("d",)])]

    def test_unregistered_callbacks_run_individually(self):
        sim = Simulator()
        seen = []
        for value in (1, 2):
            sim.schedule_at_fast(1.0, seen.append, (value,))
        sim.run_batched()
        assert seen == [1, 2]

    def test_timers_interleave_with_cohorts(self):
        sim = Simulator()
        order = []
        sim.register_batch_handler(order.append, lambda t, cohort: order.append(("cohort", t, len(cohort))))
        sim.schedule_at_fast(1.0, order.append, ("x",))
        sim.schedule_at_fast(1.0, order.append, ("y",))
        sim.schedule(1.5, lambda: order.append("timer"))
        sim.schedule_at_fast(2.0, order.append, ("z",))
        sim.run_batched()
        assert order == [("cohort", 1.0, 2), "timer", ("cohort", 2.0, 1)]

    def test_run_until_semantics_match_run(self):
        sim = Simulator()
        fired = []
        sim.schedule_at_fast(1.0, fired.append, (1,))
        sim.schedule_at_fast(3.0, fired.append, (3,))
        sim.run_batched(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0


# ----------------------------------------------------------- RNG block draws
class TestKeyedValueBlock:
    def test_bit_identical_to_scalar_draws(self):
        for seed in (0, 1, 2018, (1 << 64) - 1, 0x9E3779B97F4A7C15):
            for start, count in ((0, 1), (0, 17), (5, 64), (123456789, 7)):
                block = keyed_value_block(seed, start, count, np)
                scalars = [keyed_value(seed, start + i) for i in range(count)]
                assert block.tolist() == scalars

    def test_values_in_unit_interval(self):
        block = keyed_value_block(42, 0, 1000, np)
        assert float(block.min()) >= 0.0
        assert float(block.max()) < 1.0


# -------------------------------------------------------- event-id bulk path
class TestReserveEventIds:
    def test_reservation_is_contiguous_and_advances_counter(self):
        reset_event_ids()
        first = next_event_id()
        base = reserve_event_ids(5)
        assert base == first + 1
        assert next_event_id() == base + 5

    def test_equivalent_to_individual_draws(self):
        reset_event_ids()
        base = reserve_event_ids(4)
        reserved = list(range(base, base + 4))
        reset_event_ids()
        individual = [next_event_id() for _ in range(4)]
        assert reserved == individual


# ------------------------------------------------------------- event pooling
class TestEventPooling:
    def test_recycled_clone_is_reused_by_copy_for_edge(self):
        reset_event_ids()
        root = Event.data("src", payload={"seq": 1}, created_at=1.0)
        clone = root.copy_for_edge()
        recycle_event(clone)
        assert clone.payload is None  # pool never keeps user data alive
        reused = root.copy_for_edge()
        assert reused is clone
        assert reused.payload == {"seq": 1}
        assert reused.root_id == root.root_id
        assert reused.event_id != root.event_id

    def test_anchored_events_are_not_pooled(self):
        reset_event_ids()
        root = Event.data("src", anchored=True, created_at=0.0)
        clone = root.copy_for_edge()
        recycle_event(clone)
        assert root.copy_for_edge() is not clone

    def test_reset_event_ids_drains_the_pool(self):
        reset_event_ids()
        root = Event.data("src", created_at=0.0)
        clone = root.copy_for_edge()
        recycle_event(clone)
        reset_event_ids()
        fresh_root = Event.data("src", created_at=0.0)
        assert fresh_root.copy_for_edge() is not clone
