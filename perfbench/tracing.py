"""Layer spans recorded from outside the program.

The traced run wraps the entry points of each ``repro`` layer before any
runtime is built.  Every call through a wrapped entry point records one span
(name, start, end, parent) into flat in-memory arrays.  Between operations --
outside every span, while the benchmark checks outputs -- the spans are folded
into a call tree (calls, total and self time per entry point and caller) and
dropped, so memory stays bounded; spans recorded by the checks themselves are
dropped unfolded.  The call tree is written out when the run ends.

A layer's self time is the time its spans cover minus the time their child
spans cover, so the self times of all layers plus the time no span covers add
up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

#: The ``src/repro`` modules the benchmark reports on, in report order.
LAYERS: Tuple[str, ...] = (
    "sim",
    "engine.router",
    "engine.executor",
    "engine.runtime",
    "engine.batch",
    "reliability.acker",
    "reliability.checkpoint",
    "reliability.statestore",
    "metrics.log",
    "metrics.timeline",
    "core",
    "elastic",
    "cluster",
    "dataflow",
)

_LOG_METHODS = (
    "record_source_emit",
    "record_sink_receipt",
    "extend_emits",
    "extend_receipts",
    "record_drop",
    "record_deferred",
    "record_kill",
    "record_lifecycle",
    "root_first_emit_time",
    "is_old_root",
    "receipts_after",
    "receipts_between",
    "emits_between",
    "first_receipt_after",
    "last_old_receipt",
    "last_replay_receipt",
    "lost_in_kills",
    "dropped_count",
    "deferred_count",
    "distinct_roots_received",
    "summary",
)

_ACKER_METHODS = (
    "register",
    "register_block",
    "absorb_resolved",
    "is_pending",
    "anchor",
    "ack",
    "fail",
    "anchor_batch",
    "ack_batch",
    "settle_batch",
    "flush",
    # Dispatched by the kernel when a tree's timeout timer fires.
    "_check_timeout",
)

#: (layer, module, class or None for module functions, attribute names).
#: Private names are callbacks the kernel dispatches into the layer; without
#: them their time would land in ``sim``.
ENTRY_POINTS: Tuple[Tuple[str, str, object, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.kernel", "Simulator", ("run", "run_batched")),
    ("engine.router", "repro.engine.router", "Router", ("route", "send_direct", "_deliver_batch")),
    (
        "engine.executor",
        "repro.engine.executor",
        "Executor",
        ("deliver", "_maybe_process", "_complete_data", "_handle_control"),
    ),
    ("engine.executor", "repro.engine.executor", "SourceExecutor", ("_emit_tick", "_drain_tick")),
    (
        "engine.executor",
        "repro.engine.executor",
        "SinkExecutor",
        ("_maybe_process", "_complete_data", "_complete_batch"),
    ),
    (
        "engine.runtime",
        "repro.engine.runtime",
        "TopologyRuntime",
        ("route", "ack_processed", "deliver", "_deliver_cohort", "rebalance", "fail_vm"),
    ),
    ("engine.batch", "repro.engine.batch", "BatchStepper", ("try_cascade",)),
    ("reliability.acker", "repro.reliability.acker", "AckerService", _ACKER_METHODS),
    ("reliability.checkpoint", "repro.reliability.checkpoint", "CheckpointCoordinator", ("start_wave", "notify_ack")),
    ("reliability.statestore", "repro.reliability.statestore", "StateStore", ("put", "get")),
    ("metrics.log", "repro.metrics.log", "EventLog", _LOG_METHODS),
    ("metrics.log", "repro.metrics.log", "ColumnarEventLog", _LOG_METHODS),
    ("metrics.timeline", "repro.metrics.timeline", None, ("rate_timeline", "latency_timeline", "stabilization_time")),
    ("core", "repro.core.metrics", None, ("compute_migration_metrics",)),
    ("core", "repro.core.strategy", "MigrationStrategy", ("migrate",)),
    ("core", "repro.core.dsm", "DefaultStormMigration", ("migrate",)),
    ("core", "repro.core.dcr", "DrainCheckpointRestore", ("migrate",)),
    ("elastic", "repro.elastic.policy", "ControlPipeline", ("sense", "decide")),
    ("elastic", "repro.elastic.controller", "ElasticityController", ("handle_vm_failure", "handle_eviction_notice")),
    ("cluster", "repro.cluster.cloud", "CloudProvider", ("provision", "provision_with_latency")),
    ("cluster", "repro.cluster.chaos", "FaultInjector", ("arm",)),
    ("dataflow", "repro.dataflow.event", "Event", ("data", "checkpoint", "derive", "copy_for_edge")),
    ("dataflow", "repro.dataflow.event", None, ("next_event_id", "reserve_event_ids", "recycle_event")),
)


class SpanRecorder:
    """Flat, append-only span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self.code = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        # Folded call tree, indexed by code * (names + 1) + (parent code + 1).
        self._calls = np.zeros(0, dtype=np.int64)
        self._total = np.zeros(0, dtype=np.float64)
        self._child = np.zeros(0, dtype=np.float64)

    def wrap(self, layer: str, name: str, func: Callable) -> Callable:
        """Return ``func`` wrapped so each call records one span."""
        code = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        clock = time.perf_counter
        codes = self.code
        add_code = codes.append
        add_parent = self.parent.append
        add_start = self.start.append
        add_end = self.end.append
        ends = self.end
        stack = self._stack
        push = stack.append
        pop = stack.pop

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(codes)
            add_code(code)
            add_parent(stack[-1])
            add_end(0.0)
            push(index)
            add_start(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()

        return traced

    # ------------------------------------------------------------ installing
    def install(self) -> None:
        """Wrap every entry point in place.

        Class attributes are replaced on the class that defines them.  Module
        functions are replaced in every loaded ``repro`` module that bound
        them by name, and so are module-level aliases of wrapped methods, so
        identity checks inside the program see the wrapper too.
        """
        replaced: Dict[int, object] = {}
        for layer, module_name, class_name, attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            owner_label = module_name.rsplit(".", 1)[-1] if class_name is None else class_name
            for attr in attrs:
                if not hasattr(owner, attr):
                    raise LookupError(f"entry point {module_name}.{owner_label}.{attr} is missing")
                raw = vars(owner).get(attr)
                if raw is None:
                    continue  # inherited: wrapped on the class that defines it
                label = f"{layer}:{owner_label}.{attr}"
                if isinstance(raw, (classmethod, staticmethod)):
                    inner = raw.__func__
                    wrapped = type(raw)(self.wrap(layer, label, inner))
                    replaced[id(inner)] = wrapped.__func__
                else:
                    wrapped = self.wrap(layer, label, raw)
                    replaced[id(raw)] = wrapped
                setattr(owner, attr, wrapped)
        size = (len(self.names) + 1) ** 2
        self._calls = np.zeros(size, dtype=np.int64)
        self._total = np.zeros(size, dtype=np.float64)
        self._child = np.zeros(size, dtype=np.float64)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, key, wrapper)

    # ------------------------------------------------------------ accounting
    def fold(self) -> None:
        """Fold the spans recorded so far into the call tree and drop them.

        Called between operations, outside every span, so memory stays
        bounded by the largest operation instead of the whole run.
        """
        if len(self._stack) != 1:
            raise RuntimeError("spans can only be folded outside every span")
        n = len(self.code)
        if n:
            code = np.frombuffer(self.code, dtype=np.int32).astype(np.int64)
            parent = np.frombuffer(self.parent, dtype=np.int64)
            start = np.frombuffer(self.start, dtype=np.float64)
            stop = np.frombuffer(self.end, dtype=np.float64)
            if (stop < start).any():
                raise RuntimeError("a span was never closed")
            duration = stop - start
            nested = parent >= 0
            child_time = np.bincount(parent[nested], weights=duration[nested], minlength=n)
            parent_code = np.where(nested, code[np.where(nested, parent, 0)], -1)
            width = len(self.names) + 1
            key = code * width + (parent_code + 1)
            size = width * width
            self._calls += np.bincount(key, minlength=size)[: size]
            self._total += np.bincount(key, weights=duration, minlength=size)[: size]
            self._child += np.bincount(key, weights=child_time, minlength=size)[: size]
            del code, parent, start, stop
        self.discard()

    def discard(self) -> None:
        """Drop the spans recorded so far (the benchmark's own output checks)."""
        if len(self._stack) != 1:
            raise RuntimeError("spans can only be discarded outside every span")
        for column in (self.code, self.parent, self.start, self.end):
            del column[:]

    def call_tree(self) -> List[Dict[str, object]]:
        """One row per (entry point, calling entry point) pair seen."""
        width = len(self.names) + 1
        rows = []
        for key in np.flatnonzero(self._calls):
            code, parent_code = divmod(int(key), width)
            rows.append(
                {
                    "name": self.names[code],
                    "layer": self.name_layer[code],
                    "parent": self.names[parent_code - 1] if parent_code else None,
                    "calls": int(self._calls[key]),
                    "total_s": float(self._total[key]),
                    "self_s": float(self._total[key] - self._child[key]),
                }
            )
        return rows

    def layer_times(self, window_s: float) -> Dict[str, Dict[str, float]]:
        """Per-layer calls and self time, plus the part of ``window_s`` no span covers."""
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        top_level = 0.0
        for row in self.call_tree():
            calls[row["layer"]] += row["calls"]
            self_s[row["layer"]] += row["self_s"]
            if row["parent"] is None:
                top_level += row["total_s"]
        out: Dict[str, Dict[str, float]] = {
            layer: {"calls": calls[layer], "self_s": self_s[layer]} for layer in LAYERS
        }
        out["unattributed"] = {"self_s": window_s - top_level}
        return out

    def entry_calls(self, name: str) -> int:
        """Number of folded spans recorded under one entry-point label."""
        return sum(row["calls"] for row in self.call_tree() if row["name"] == name)
