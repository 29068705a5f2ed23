"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the workload runs twice, untraced
and then with the per-layer wrappers installed, and the metrics are the
per-layer ones.  ``setup_s`` is the median of ``SETUPS`` cold set-ups:
the run's own and those of set-up-only runs in fresh processes.  The lines before it give the machine, and a ledger of
every metric the workload reports, with its unit, including those that
apply to this workload only.  The exit code is 1 when a correctness
check fails, and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: End-to-end metrics every workload reports (the gated ones).
END_TO_END = {
    "setup_s": "s",
    "keys_per_s": "keys/s",
    "read_p50_us": "us",
    "write_p50_us": "us",
}
#: End-to-end metrics that apply to some workloads only (ledger lines).
WORKLOAD_ONLY = {
    "insert_keys_per_s": "keys/s",
    "churn_keys_per_s": "keys/s",
    "query_keys_per_s": "keys/s",
    "fpr": "share",
    "read_p99_us": "us",
    "write_p99_us": "us",
    "read_calls": "count",
    "write_calls": "count",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "op_calls": "count",
    "join_s": "s",
    "join_read_p50_us": "us",
    "join_write_p50_us": "us",
    "post_join_keys_per_s": "keys/s",
    "failed_share": "share",
}
#: Cold set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true",
        help="shrink data sizes ten-fold (smoke check only)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time the workload's set-up, print it as JSON and stop",
    )
    return parser.parse_args(argv)


def fresh_setups(args: argparse.Namespace, count: int) -> list[float]:
    """Set-up times of ``count`` set-up-only runs, each a fresh process."""
    command = [
        sys.executable, __file__, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ] + (["--short"] if args.short else [])
    times = []
    for _ in range(count):
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def pin_to_one_cpu() -> None:
    """Keep this process, every thread it starts and its children on one CPU.

    Called before NumPy is imported, so that its threads inherit the
    mask too.  On a small virtual machine the wake-ups between the
    callers, the server loop and the worker threads cost several times
    more across CPUs than on one, and how the scheduler happens to place
    the threads then decides the result (see README.md, Steadiness).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    from common import machine_info
    from layers import LAYER_METRICS, LEDGER_ONLY, Tracer
    import workloads
    from workloads import RUN_DIR, WORKLOADS, SetupDone

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run = WORKLOADS[args.workload]
    if args.setup_only:
        workloads.SETUP_ONLY = True
        try:
            run(args.seed, args.seconds, args.short, None)
        except SetupDone as done:
            print(json.dumps({"setup_s": done.seconds}), flush=True)
            return 0
        finally:
            shutil.rmtree(RUN_DIR, ignore_errors=True)
        return 1
    print("# machine " + json.dumps(machine_info(args.seed), sort_keys=True))
    # Before the run, so that they do not compete with its timed window.
    setups = fresh_setups(args, SETUPS - 1)
    try:
        plain = run(args.seed, args.seconds, args.short, None)
        plain.metrics["setup_s"] = statistics.median([plain.metrics["setup_s"], *setups])
        outcomes = [plain]
        if args.trace:
            tracer = Tracer()
            try:
                traced = run(args.seed, args.seconds, args.short, tracer)
            finally:
                tracer.remove()
            traced.layers["observability.trace_overhead"] = (
                traced.metrics["keys_per_s"] / plain.metrics["keys_per_s"]
            )
            outcomes.append(traced)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    units = {**END_TO_END, **WORKLOAD_ONLY}
    for name, value in plain.metrics.items():
        print(f"# e2e {args.workload} {name} {value:.6g} {units[name]}")
    for name, value in outcomes[-1].layers.items():
        unit, _, what, target = LAYER_METRICS[name]
        print(f"# layer {args.workload} {name} {value:.6g} {unit} ({what}; moves {target})")
    for outcome in outcomes:
        for check, ok in outcome.checks.items():
            print(f"# check {args.workload} {check} {'ok' if ok else 'FAILED'}")

    if args.trace:
        metrics = {
            name: {"value": outcomes[-1].layers[name], "unit": LAYER_METRICS[name][0]}
            for name in LAYER_METRICS
            if name not in LEDGER_ONLY
        }
    else:
        metrics = {
            name: {"value": plain.metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    correct = all(outcome.correct for outcome in outcomes)
    result = {
        "correct": correct,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
