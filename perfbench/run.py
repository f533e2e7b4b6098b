"""The repository benchmark: run one workload, check it, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_matrix --seed 2018 --seconds 15 --trace 0

Every repetition runs in a fresh single-threaded ``worker.py`` process.  With
``--trace 0`` the workload is repeated (at least twice, and until ``--seconds``
have passed) and every repetition must produce the same counts and results;
the first two also run the source-root checks and must agree on them.  The
times reported are medians of times rescaled by the workers' speed probes
(``timing.py``).  Set-up time is also sampled by extra processes that stop at
the first simulator run.  With
``--trace 1`` one untraced and one traced repetition run; the traced one
splits its wall time by layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit, the workload's own results (fail ratio,
paper fidelity, chaos scores) and any failed source roots.  A copy of the full
record, and for traced runs the call tree, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("paper_matrix", "steady_acked", "chaos_storm")
#: Same-seed repetitions every untraced run compares.
MIN_REPS = 2
#: Set-up time samples per untraced run (repetitions count towards it).
SETUP_SAMPLES = 9
#: Set-up-only processes started before each repetition while samples are
#: short, so the samples spread over the whole run rather than one stretch.
SETUP_BURST = 3
#: Whole-run budget: a run must finish, checked and reported, within 180 s.
BUDGET_S = 170.0


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "delivered_per_s": "1/s",
    "peak_rss_mb": "MB",
}

RESULT_UNITS = {
    "fail_ratio": "ratio",
    "paper.restore_err": "ratio",
    "paper.replay_err": "ratio",
    "paper.stab_err": "ratio",
    "paper.order_agree": "ratio",
    "chaos.unavailable_s": "s",
    "chaos.replays": "count",
    "chaos.cost_usd": "usd",
}


class BenchmarkError(RuntimeError):
    """A worker process failed; no result can be reported."""


class Runner:
    """Starts worker processes within the run's time budget."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = "1"

    def run(
        self, trace: Optional[Path] = None, setup_only: bool = False, root_checks: bool = True
    ) -> Dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("time budget exhausted")
        command = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--launched-at", repr(time.monotonic()),
        ]
        if trace is not None:
            command += ["--trace", str(trace)]
        if setup_only:
            command.append("--setup-only")
        if not root_checks:
            command.append("--no-root-checks")
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"worker exceeded the time budget: {' '.join(command)}") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(
                f"worker exited with {proc.returncode}: {' '.join(command)}\n{proc.stderr[-4000:]}"
            )
        return json.loads(lines[-1])


#: What the source-root checks add to a record; repetitions that skip those
#: checks are compared with the first on everything else.
ROOT_CHECK_COUNTS = ("roots.attempted", "roots.failed")
ROOT_CHECK_RESULTS = ("fail_ratio",)


def _fingerprint(record: Dict, root_checks: bool = True) -> Dict:
    """What must be identical between same-seed repetitions."""
    keys = ("counts", "results", "errors", "failed_roots", "crashes", "operations")
    if root_checks:
        return {key: record[key] for key in keys}
    return {
        "counts": {k: v for k, v in record["counts"].items() if k not in ROOT_CHECK_COUNTS},
        "results": {k: v for k, v in record["results"].items() if k not in ROOT_CHECK_RESULTS},
        "crashes": record["crashes"],
        "operations": record["operations"],
    }


def _mismatches(records: List[Dict]) -> List[str]:
    problems = []
    for i, record in enumerate(records[1:], start=1):
        root_checks = "fail_ratio" in record["results"]
        first = _fingerprint(records[0], root_checks)
        other = _fingerprint(record, root_checks)
        for key in first:
            if other[key] != first[key]:
                problems.append(f"repetition {i} differs from repetition 0 in {key}")
    return problems


def _show(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def measure(runner: Runner, seconds: float) -> Dict:
    """Untraced run: end-to-end metrics from repeated same-seed repetitions."""
    start = time.monotonic()
    reps = []
    setup = []
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        for _ in range(min(SETUP_BURST, SETUP_SAMPLES - len(setup))):
            setup.append(runner.run(setup_only=True))
        reps.append(runner.run(root_checks=len(reps) < MIN_REPS))
        setup.append(reps[-1])
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.run(setup_only=True))
    receipts = reps[0]["counts"]["receipts"]
    wall = _median([r["scaled_wall_s"] for r in reps])
    metrics = {
        "setup_s": _median([s["scaled_setup_s"] for s in setup]),
        "wall_s": wall,
        "delivered_per_s": receipts / wall,
        # The root checks' own arrays raise the high-water mark read at later
        # operations, so only repetitions that ran them are compared.
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps[:MIN_REPS]]),
    }
    return {
        "reps": reps,
        "notes": [
            f"unscaled: setup_s {_median([s['setup_s'] for s in setup]):.6g} s, "
            f"wall_s {_median([r['wall_s'] for r in reps]):.6g} s",
        ],
        "setup_samples": [s["scaled_setup_s"] for s in setup],
        "problems": _mismatches(reps),
        "metrics": {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()},
    }


def measure_layers(runner: Runner, call_tree: Path) -> Dict:
    """Traced run: per-layer metrics, plus counts from an untraced repetition."""
    plain = runner.run()
    traced = runner.run(trace=call_tree)
    problems = [p.replace("repetition 1", "the traced repetition") for p in _mismatches([plain, traced])]
    window = traced["work_s"]
    layers = traced["layers"]
    # Float rounding in the folded sums stays far below this.
    slack = 1e-6 * max(window, 1.0)
    for layer in LAYERS:
        if layers[layer]["self_s"] < -slack:
            problems.append(f"{layer} self time is negative: child spans outlast their parent")
    if layers["unattributed"]["self_s"] < -slack:
        problems.append("top-level spans cover more than the traced wall time")
    counts = plain["counts"]
    metrics: Dict[str, tuple] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (layers[layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (layers[layer]["self_s"], "s")
        metrics[f"{layer}.share"] = (layers[layer]["self_s"] / window, "ratio")
    tries = traced["try_cascade_calls"]
    metrics["engine.batch.engage_ratio"] = (
        counts["engine.batch.cascades"] / tries if tries else 0.0, "ratio"
    )
    metrics["unattributed"] = (layers["unattributed"]["self_s"], "s")
    metrics["trace.overhead"] = (window / plain["work_s"], "ratio")
    for name in (
        "sim.events",
        "engine.router.routed",
        "engine.batch.cascades",
        "engine.batch.inline_events",
    ):
        metrics[name] = (counts[name], "count")
    inline = counts["engine.batch.inline_events"]
    metrics["engine.batch.coverage"] = (inline / (inline + counts["sim.events"]), "ratio")
    for name in (
        "reliability.acker.registered",
        "reliability.acker.failed",
        "reliability.acker.late_acks",
    ):
        metrics[name] = (counts[name], "count")
    acks = counts["reliability.acker.acks"]
    metrics["reliability.acker.bulk_share"] = (
        counts["reliability.acker.bulk_acks"] / acks if acks else 0.0, "ratio"
    )
    metrics["reliability.checkpoint.waves"] = (counts["reliability.checkpoint.waves"], "count")
    metrics["reliability.statestore.puts"] = (counts["reliability.statestore.puts"], "count")
    metrics["reliability.statestore.bytes_written"] = (
        counts["reliability.statestore.bytes_written"], "bytes"
    )
    metrics["metrics.log.rows"] = (counts["metrics.log.rows"], "count")
    return {"reps": [plain, traced], "problems": problems, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            run = measure_layers(runner, OUT / f"{stem}-calltree.json")
        else:
            run = measure(runner, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reps = run["reps"]
    first = reps[0]
    problems = run["problems"] + [e for r in reps for e in r["errors"]]
    # Repetitions repeat the first one's operations (checked above), so the
    # first one's tally stands for the run and does not depend on its length.
    attempted = first["operations"]
    failed = len(first["failed_operations"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} repetitions={len(reps)}")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name} = {_show(value)} {unit}")
    counts = first["counts"]
    for name, value in first["results"].items():
        note = ""
        if name == "fail_ratio":
            note = f"  ({counts['roots.failed']} of {counts['roots.attempted']} source roots)"
        print(f"  {name} = {_show(value)} {RESULT_UNITS[name]}{note}")
    for line in run.get("notes", []):
        print(f"  {line}")
    for line in first["failed_roots"]:
        print(f"  failed: {line}")
    for line in first["crashes"]:
        print(f"  crashed: {line}")
    for line in problems:
        print(f"  CHECK FAILED: {line}")
    (OUT / f"{stem}.json").write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
