"""Run one workload once in this process and print its measurements as JSON.

``run.py`` starts one of these per repetition, so every repetition pays the
imports and deploy a user pays.  Usage::

    python3 perfbench/worker.py --workload NAME --seed N --launched-at T
        [--trace CALL_TREE.json] [--setup-only] [--no-root-checks]

``--launched-at`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to the first ``Simulator.run``, and
the work from there to the end of the workload.  Untraced runs probe the
machine's speed from their first line on (see ``timing.py``) and report both
times rescaled to the reference speed as well as unscaled.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from timing import Meter

ROOT = Path(__file__).resolve().parent.parent


class SetupReached(BaseException):
    """Raised at the first simulator run when only set-up is measured.

    A ``BaseException`` so that no ``except Exception`` on the way out -- the
    benchmark's own per-operation crash handling included -- swallows it.
    """


def _hook_first_run(on_first) -> None:
    """Call ``on_first`` at the first ``Simulator.run``/``run_batched``, then get out of the way."""
    from repro.sim.kernel import Simulator

    previous = {name: Simulator.__dict__[name] for name in ("run", "run_batched")}

    def make(name):
        def first_call(self, *args, **kwargs):
            for key, func in previous.items():
                setattr(Simulator, key, func)
            on_first()
            return previous[name](self, *args, **kwargs)

        return first_call

    for name in previous:
        setattr(Simulator, name, make(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--trace", default=None, help="record layer spans; write their call tree here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-root-checks", action="store_true")
    args = parser.parse_args(argv)

    # The parent's launch instant on this process's clocks; on Linux
    # ``monotonic`` and ``perf_counter`` read the same clock.
    launched = args.launched_at + (time.perf_counter() - time.monotonic())
    sys.path.insert(0, str(ROOT / "src"))
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.SpanRecorder()
        recorder.install()
        meter = Meter(on_pause=recorder.fold, on_resume=recorder.discard)
    else:
        # The traced run is not rescaled, so it runs no probes.
        meter = Meter()
        meter.start_probing()
    # Imported after the wrappers are installed, so the names it binds from
    # ``repro`` are the wrapped ones.
    import workloads

    stamps: dict = {}

    def on_first() -> None:
        stamps["timed"] = meter.timed_clock()
        if args.setup_only:
            raise SetupReached()

    _hook_first_run(on_first)
    begin = meter.timed_clock()
    try:
        outcome = workloads.WORKLOADS[args.workload](args.seed, meter, not args.no_root_checks)
    except SetupReached:
        meter.stop_probing()
        print(json.dumps({
            "setup_s": stamps["timed"] - launched,
            "scaled_setup_s": meter.scaled_s(launched, stamps["timed"]),
        }))
        return 0
    end = meter.timed_clock()
    record = {
        "setup_s": stamps["timed"] - launched,
        "wall_s": end - stamps["timed"],
        "work_s": end - begin,
        "peak_rss_mb": meter.peak_rss_kb / 1024.0,
        "operations": outcome.operations,
        "failed_operations": sorted(outcome.failed_operations),
        "counts": outcome.counts,
        "results": outcome.results,
        "errors": outcome.errors,
        "failed_roots": outcome.failed_roots,
        "crashes": outcome.crashes,
    }
    if recorder is None:
        meter.stop_probing()
        record["scaled_setup_s"] = meter.scaled_s(launched, stamps["timed"])
        record["scaled_wall_s"] = meter.scaled_s(stamps["timed"], end)
    else:
        recorder.fold()
        tree = recorder.call_tree()
        record["layers"] = recorder.layer_times(record["work_s"])
        record["try_cascade_calls"] = recorder.entry_calls("engine.batch:BatchStepper.try_cascade")
        record["spans"] = sum(row["calls"] for row in tree)
        Path(args.trace).write_text(json.dumps(tree, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
