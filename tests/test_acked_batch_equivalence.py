"""Batch stepping under data acking: the acked equivalence matrix.

The unacked equivalence contract (``tests/test_batch_equivalence.py``) holds
under acking too: the stepper stays engaged and replays the acker XOR stream
in bulk, and the vectorized tier is equivalent to the classic keyed kernel
*modulo event-id assignment order*: identical emission/receipt times, replay
counts, registered/failed totals and scaling decisions, with root identity
mapped through emission order.  Anchor/ack/late-ack tallies are excluded
from the equivalence class: they depend on the literal id *values* (whether
a tree's running XOR hash happens to cross zero mid-stream), which is
exactly the degree of freedom the modulo-ids contract gives up.  Where the
sweep declines (loss, replay and migration windows), those ticks run on the
classic per-event path.

Loss windows are where id values become observable: which trees *fail*
under a kill depends on which pending hashes had coincidentally collapsed —
an id-value accident (see ``run_migration_experiment``'s docstring on
Storm's ack-hash collision).  The vectorized tier therefore pins replay-count
identity under a targeted injected loss (an explicit ``acker.fail`` of a
just-emitted root, positionally identical in every mode) and pins identical
scaling decisions on a full DSM elastic run whose migrations lose in-flight
messages.
"""

from __future__ import annotations

import pytest

from repro.dataflow import topologies
from repro.dataflow.event import reset_event_ids
from repro.elastic import ControllerConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments import run_elastic_experiment
from repro.sim import Simulator
from repro.workloads import StepProfile

from tests.conftest import build_cluster, fast_config
from tests.test_batch_equivalence import fingerprint_modulo_ids


# ------------------------------------------------------------------ builders
def build_acked_grid(batch_stepping: bool):
    """A deployed Grid runtime with acking on (DSM reliability profile)."""
    reset_event_ids()
    sim = Simulator()
    cluster = build_cluster(sim, worker_vms=11)
    config = fast_config("dsm")
    config.keyed_network_jitter = True
    config.batch_stepping = batch_stepping
    runtime = TopologyRuntime(topologies.grid(), cluster, sim=sim, config=config)
    runtime.deploy()
    runtime.start()
    return sim, runtime


def run_acked_windows(batch_stepping: bool, windows: int, step_s: float):
    sim, runtime = build_acked_grid(batch_stepping)
    for _ in range(windows):
        sim.run(until=sim.now + step_s)
    return sim, runtime


def replay_count(runtime: TopologyRuntime) -> int:
    return sum(s.replayed_count for s in runtime.source_executors)


def acked_fingerprint(runtime: TopologyRuntime):
    """The modulo-ids fingerprint plus the id-order-independent acker facts.

    ``registered`` counts one call per emission plus one per replay, and
    ``failed``/replays count whole trees — none depend on id values.  The
    anchor/ack/late-ack tallies *and* the completed/pending split stay out:
    classic's sequential ids complete some trees early through XOR
    zero-crossing accidents, so both are id-value artifacts.
    """
    stats = runtime.acker.stats
    return (
        fingerprint_modulo_ids(runtime),
        stats.registered,
        stats.failed,
        replay_count(runtime),
    )


WINDOWS = [(1, 10.0), (20, 0.5), (7, 1.3)]
WINDOW_IDS = ["cold-10s", "20x0.5s", "7x1.3s"]


# ------------------------------------------------- grid: the acked matrix
class TestAckedGridMatrix:
    """Classic vs vectorized batched on the acked Grid."""

    @pytest.mark.parametrize("windows,step_s", WINDOWS, ids=WINDOW_IDS)
    def test_vectorized_modulo_ids(self, windows, step_s):
        _, classic = run_acked_windows(False, windows, step_s)
        expected = acked_fingerprint(classic)
        _, batched = run_acked_windows(True, windows, step_s)
        assert acked_fingerprint(batched) == expected
        # The cascade actually carried the run under acking.
        assert batched.batch_stepper.vector_cascades >= 1

    def test_windowed_run_reengages_every_window(self):
        # Early XOR zero-crossings leave completed-tree descendants in flight
        # at every window boundary; ingestion must adopt them and re-engage
        # rather than declining for the rest of the run.
        _, runtime = run_acked_windows(True, 20, 0.5)
        assert runtime.batch_stepper.vector_cascades >= 15

    def test_bulk_apis_absorbed_the_stream(self):
        _, runtime = run_acked_windows(True, 1, 10.0)
        stats = runtime.acker.stats
        assert stats.bulk_anchors > 0
        assert stats.bulk_acks > 0
        # Classic runs never touch the bulk counters.
        _, classic = run_acked_windows(False, 1, 10.0)
        assert classic.acker.stats.bulk_anchors == 0
        assert classic.acker.stats.bulk_acks == 0


# ------------------------------------------------------ grid: injected loss
class TestAckedInjectedLoss:
    """An explicit fail of a just-emitted root: one replay, every mode.

    The failed root is picked positionally (newest still-pending emission at
    the injection time) so both modes lose the *same* tuple, whatever
    ids it carries; replay traffic then runs through the classic path (the
    scan declines replayed events) and the cascade re-engages after.
    """

    @staticmethod
    def run_with_fail(batch_stepping: bool):
        sim, runtime = build_acked_grid(batch_stepping)
        injected = []

        def inject():
            for emit in reversed(runtime.log.source_emits):
                if runtime.acker.is_pending(emit.root_id):
                    runtime.acker.fail(emit.root_id)
                    injected.append(emit.time)
                    return

        # 10 ms after the emission tick at t=3.0: that tree is one hop into
        # the pipeline in every mode, so the positional pick cannot diverge.
        sim.schedule_at(3.01, inject)
        sim.run(until=10.0)
        return runtime, injected

    def test_replay_counts_identical_across_the_matrix(self):
        classic, lost_c = self.run_with_fail(False)
        vector, lost_v = self.run_with_fail(True)
        assert lost_c == lost_v == [3.0]
        assert replay_count(classic) > 0
        assert replay_count(vector) == replay_count(classic)
        assert acked_fingerprint(vector) == acked_fingerprint(classic)
        # Disengaged around the loss window, re-engaged after.
        assert vector.batch_stepper.vector_cascades >= 2


# --------------------------------------------------------------- elastic run
class TestAckedElasticEquivalence:
    """Full DSM elastic run: migrations kill executors, losing in-flight
    messages (the paper's fig. 6 replay source).  The vectorized tier must
    make the same scaling decisions as the classic kernel."""

    @staticmethod
    def run_elastic(batch_stepping: bool):
        config = fast_config("dsm", seed=11)
        config.keyed_network_jitter = True
        config.batch_stepping = batch_stepping
        return run_elastic_experiment(
            dag="traffic",
            strategy="dsm",
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
    def actions_of(result):
        return [
            (a.direction, a.from_tier, a.to_tier, a.decided_at, a.enacted_at, a.completed_at)
            for a in result.actions
        ]

    @staticmethod
    def replays_of(result):
        return sum(1 for e in result.log.source_emits if e.replay_count > 0)

    def test_elastic_dsm_run_matches_classic(self):
        classic = self.run_elastic(False)
        assert self.actions_of(classic), "the surge must trigger scaling"
        assert self.replays_of(classic) > 0, "DSM migrations must replay"

        vector = self.run_elastic(True)
        assert self.actions_of(vector) == self.actions_of(classic)
        # Which trees a migration kill catches pending depends on id-value
        # XOR accidents, so the vectorized replay count may differ by the
        # handful of trees classic completed early by collision.
        assert self.replays_of(vector) > 0
        assert vector.runtime.batch_stepper.vector_cascades > 0
