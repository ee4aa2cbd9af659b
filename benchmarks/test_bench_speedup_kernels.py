"""Benchmark regression guard for the batched Monte Carlo trial kernels.

Measures what ``layout="kernel"`` actually replaces in the speedup
pipeline's Monte Carlo stages: the scalar per-trial loop of
:func:`repro.speedup.finite_runner.estimate_global_success` (one
``rng.randrange`` call per node per trial, one ``evaluate`` per node)
against the batched distinct-assignment kernel
(:mod:`repro.speedup.trial_kernel`), plus the sample loop of
:func:`repro.speedup.failure.node_local_failure`'s Monte Carlo branch.
Asserts

* the headline claim: **>= 10x speedup** on ``estimate_global_success``
  at ``trials=2000`` on the 67x66 torus (n=4422 >= the 4373-node grid
  the round-kernel benchmark pins) — the number ``docs/PERFORMANCE.md``
  quotes;
* no regression: each cell's speedup stays within **2x** of the
  committed baseline (the last entry of
  ``benchmarks/BENCH_speedup_kernels.json``) — a ratio of two timings
  on the same machine, so machine-independent;
* exactness, on every timed repeat: the same estimate, the same
  per-trial ``trial`` event sequence (index, outcome, failing count), and
  the same final ``rng`` state as the reference loop.  A kernel that
  silently declined would "win" by 1x and fail the headline bar; one
  that drifted off the Mersenne-Twister stream fails the state check.

The headline reference costs ~2000 * 4422 scalar draws and evaluations
(tens of seconds), so it is timed once per session while the kernel is
timed ``_REPEATS`` times, identity asserted on every timed repeat
against that one reference run.

Run with ``BENCH_UPDATE=1`` to append the current measurements as a new
trajectory entry (and commit the json); plain runs never write.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Any, Dict

import pytest

from repro.graphs.generators import toroidal_grid
from repro.graphs.orientation import orient_torus
from repro.instrumentation.tracer import Tracer
from repro.speedup.algorithms import (
    local_maximum_coloring,
    smaller_count_coloring,
)
from repro.speedup.failure import node_local_failure
from repro.speedup.finite_runner import estimate_global_success

BENCH_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_speedup_kernels.json"
)

#: The measured grid.  Keep keys stable: they index the json trajectory.
#: ``ref_repeats`` bounds how often the slow scalar loop is timed (the
#: headline reference runs ~8.8M scalar draws; once is plenty).
CONFIGS = {
    "torus-67x66-local-max-trials2000": {
        "kind": "estimate", "algorithm": "local-maximum", "bits": 1,
        "rows": 67, "cols": 66, "trials": 2000, "seed": 11,
        "ref_repeats": 1,
    },
    "torus-23x24-smaller-count-trials400": {
        "kind": "estimate", "algorithm": "smaller-count", "bits": 1,
        "rows": 23, "cols": 24, "trials": 400, "seed": 5,
        "ref_repeats": 3,
    },
    "node-mc-local-max-samples200k": {
        "kind": "node-mc", "algorithm": "local-maximum", "bits": 1,
        "samples": 200_000, "seed": 3, "ref_repeats": 3,
    },
}

#: The cell that must meet the headline >= 10x bar: the full batched
#: trial pipeline at trials=2000 on n=4422 (the tentpole's acceptance
#: criterion).
HEADLINE_MIN_SPEEDUP = 10.0
HEADLINE_CONFIGS = ("torus-67x66-local-max-trials2000",)

#: Regression tolerance against the committed baseline speedup.
BASELINE_TOLERANCE = 2.0

_REPEATS = 5

_FACTORIES = {
    "local-maximum": local_maximum_coloring,
    "smaller-count": smaller_count_coloring,
}


class _TrialLog(Tracer):
    """Records the exact ``trial`` event sequence a run emits."""

    def __init__(self) -> None:
        self.events = []

    def on_event(self, name, /, **attrs):
        if name == "trial":
            self.events.append(
                (attrs["index"], attrs["succeeded"], attrs["failing_nodes"])
            )


def _measure_estimate(config: Dict[str, Any]) -> Dict[str, Any]:
    alg = _FACTORIES[config["algorithm"]](2, config["bits"])
    rows, cols = config["rows"], config["cols"]
    graph = toroidal_grid(rows, cols)
    orientation = orient_torus(graph, rows, cols)
    trials, seed = config["trials"], config["seed"]

    def run(layout, log):
        rng = random.Random(seed)
        start = time.perf_counter()
        estimate = estimate_global_success(
            alg, graph, orientation, trials,
            rng=rng, tracer=log, layout=layout,
        )
        return time.perf_counter() - start, estimate, rng.getstate()

    # Untimed warmup: fault in the kernel arrays and let the CPU leave
    # its idle frequency state.
    run("kernel", None)
    ref_times = []
    ref_log = _TrialLog()
    for _ in range(config["ref_repeats"]):
        elapsed, ref_estimate, ref_state = run("scalar", ref_log)
        ref_times.append(elapsed)
        ref_log, last_log = _TrialLog(), ref_log
    kernel_times = []
    for _ in range(_REPEATS):
        log = _TrialLog()
        elapsed, estimate, state = run("kernel", log)
        kernel_times.append(elapsed)
        # Exactness on every timed repeat: same estimate, same
        # per-trial outcomes, same final Mersenne-Twister state.  A
        # declined batch would match bit-for-bit but lose the headline
        # speedup assertion instead of passing silently.
        assert estimate == ref_estimate
        assert log.events == last_log.events
        assert state == ref_state
    ref_s, kernel_s = min(ref_times), min(kernel_times)
    return {
        "n": graph.n,
        "trials": trials,
        "successes": sum(1 for _, ok, _ in last_log.events if ok),
        "reference_seconds": round(ref_s, 6),
        "kernel_seconds": round(kernel_s, 6),
        "speedup": round(ref_s / kernel_s, 3),
    }


def _measure_node_mc(config: Dict[str, Any]) -> Dict[str, Any]:
    alg = _FACTORIES[config["algorithm"]](2, config["bits"])
    samples, seed = config["samples"], config["seed"]

    def run(layout):
        rng = random.Random(seed)
        start = time.perf_counter()
        estimate = node_local_failure(
            alg, method="monte_carlo", samples=samples,
            rng=rng, layout=layout,
        )
        return time.perf_counter() - start, estimate, rng.getstate()

    run("kernel")
    ref_times = []
    for _ in range(config["ref_repeats"]):
        elapsed, ref_estimate, ref_state = run("auto")
        ref_times.append(elapsed)
    kernel_times = []
    for _ in range(_REPEATS):
        elapsed, estimate, state = run("kernel")
        kernel_times.append(elapsed)
        assert estimate.probability == ref_estimate.probability
        assert not estimate.exact and estimate.samples == samples
        assert state == ref_state
    ref_s, kernel_s = min(ref_times), min(kernel_times)
    return {
        "n": alg.ball.size,
        "trials": samples,
        "successes": round(float(ref_estimate.probability) * samples),
        "reference_seconds": round(ref_s, 6),
        "kernel_seconds": round(kernel_s, 6),
        "speedup": round(ref_s / kernel_s, 3),
    }


_MEASURERS = {"estimate": _measure_estimate, "node-mc": _measure_node_mc}


def _measure(config: Dict[str, Any]) -> Dict[str, Any]:
    return _MEASURERS[config["kind"]](config)


def _load_bench() -> Dict[str, Any]:
    with open(BENCH_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _baseline() -> Dict[str, Any]:
    """The most recent committed trajectory entry."""
    return _load_bench()["trajectory"][-1]["results"]


@pytest.fixture(scope="module")
def measurements() -> Dict[str, Dict[str, Any]]:
    results = {name: _measure(config) for name, config in CONFIGS.items()}
    if os.environ.get("BENCH_UPDATE") == "1":
        data = _load_bench()
        data["trajectory"].append(
            {"entry": len(data["trajectory"]) + 1, "results": results}
        )
        with open(BENCH_PATH, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return results


def test_baseline_file_is_committed():
    data = _load_bench()
    assert data["schema"] == "repro.bench-speedup-kernels/1"
    assert data["trajectory"], "baseline trajectory must not be empty"
    assert set(_baseline()) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(HEADLINE_CONFIGS))
def test_headline_speedup_on_batched_trials(measurements, name):
    result = measurements[name]
    assert result["n"] >= 4373
    assert result["trials"] >= 2000
    assert result["speedup"] >= HEADLINE_MIN_SPEEDUP, (
        f"{name}: trial kernel is only {result['speedup']}x faster "
        f"(need >= {HEADLINE_MIN_SPEEDUP}x)"
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_speedup_within_tolerance_of_baseline(measurements, name):
    baseline = _baseline()[name]
    current = measurements[name]
    floor = baseline["speedup"] / BASELINE_TOLERANCE
    assert current["speedup"] >= floor, (
        f"{name}: speedup regressed to {current['speedup']}x, more than "
        f"{BASELINE_TOLERANCE}x below the committed {baseline['speedup']}x"
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outcomes_are_deterministic(measurements, name):
    # Success counts are functions of the seed and configuration alone
    # (the stream-faithfulness the golden pins in
    # tests/test_seed_stability.py freeze); a drift here means the
    # draw order changed.
    baseline = _baseline()[name]
    current = measurements[name]
    assert current["n"] == baseline["n"]
    assert current["trials"] == baseline["trials"]
    assert current["successes"] == baseline["successes"]
