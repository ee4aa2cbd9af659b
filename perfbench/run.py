"""Run one benchmark workload against the checkout's ``src/repro``.

Usage::

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics.  The metric names and units are the ones ``BENCHMARK.json``
lists.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 whenever that line was printed (``correct`` says
whether every output matched its reference), and non-zero without it
when the program cannot be imported or started.  ``--workload all``
runs each workload in its own interpreter and prints every metric by
name and unit instead.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    """Run one workload and print its result line; returns the exit code."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as source:
        spec = json.load(source)
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(names, args)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench_workloads

    try:
        outcome = bench_workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace))
    except bench_workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in outcome.metrics:
            value = float(outcome.metrics[name])
        elif args.trace:
            value = 0.0  # a layer this workload never calls
        else:
            print(f"error: {args.workload} did not measure {name}", file=sys.stderr)
            return 4
        if not math.isfinite(value):
            print(f"error: {name} is {value}", file=sys.stderr)
            return 4
        metrics[name] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(names, args) -> int:
    """Run every workload in a fresh interpreter; print each metric by name."""
    worst = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            worst = worst or proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, measured in result["metrics"].items():
            print(f"  {metric:<34s} {measured['value']:>12.6g} {measured['unit']}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
