"""The benchmark's four workloads, each checked against ground truth.

Every workload repeats a fixed *round* of work until ``seconds`` have
passed (at least one round) and returns a :class:`Outcome`: operations
attempted and failed, and its metrics.  Correctness checks run outside
the timed window and count each wrong or missing output as one failed
operation instead of raising.

* ``report`` -- the serial report of ``python -m repro.experiments``
  at the CLI's full sizes, called in-process through the eleven public
  ``run_*`` functions; an operation is one verdict.
* ``exact-failure`` -- exact Lemma 7/8 failure probabilities; an
  operation is one probability, compared as a ``Fraction`` with
  ``golden.json``.
* ``serve-single`` / ``serve-batch`` -- the simulation daemon under a
  closed loop of one keep-alive client; an operation is one spec,
  compared with an in-process direct simulation.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import queue
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where traced runs leave their span files (ignored by git).
OUT_DIR = ROOT / ".perfbench"

#: Specs per serve round: two of each of the loadgen's seven templates.
ROUND_SPECS = 14
#: Set-up repetitions whose median is ``setup_s``.
PYTHON_SETUPS = 5
DAEMON_SETUPS = 3
#: Non-flood serve specs per run also checked against the dict layout.
REFERENCE_LAYOUT_CHECKS = 2


class SetupError(RuntimeError):
    """The program could not be started; no result can be reported."""


@dataclasses.dataclass
class Outcome:
    """What one benchmark run measured."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        """Count ``count`` failed operations and say why on stderr."""
        self.failed += count
        print(f"FAILED ({count}): {why}", file=sys.stderr)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(samples: Sequence[float]) -> Tuple[float, int]:
    """(value, percentile): the highest whole percentile above the median
    that leaves at least ten samples beyond it, by nearest rank; the
    maximum (reported as percentile 100) below 21 samples."""
    ordered = sorted(samples)
    count = len(ordered)
    for pct in range(99, 50, -1):
        rank = -(-pct * count // 100)  # ceil, 1-based nearest rank
        if count - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100


def latency_metrics(outcome: Outcome, latencies: Sequence[float]) -> None:
    """p50_s and tail_s; the tail's percentile and sample count go to stdout."""
    value, pct = tail(latencies)
    outcome.metrics["p50_s"] = statistics.median(latencies)
    outcome.metrics["tail_s"] = value
    outcome.metrics["latency.tail_percentile"] = pct
    outcome.metrics["latency.samples"] = len(latencies)
    print(f"tail_s is p{pct} of {len(latencies)} latency samples")


def round_metrics(outcome: Outcome, walls: Sequence[float], per_round: int,
                  latencies: Sequence[float]) -> None:
    """wall_s is the median round; throughput_rps counts operations per
    second of it, so one slow round moves neither."""
    wall = statistics.median(walls)
    outcome.metrics["wall_s"] = wall
    outcome.metrics["throughput_rps"] = per_round / wall
    latency_metrics(outcome, latencies)


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> Dict[str, str]:
    """The environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python_setup_seconds(modules: Sequence[str], repeats: int) -> float:
    """Median seconds from interpreter spawn until ``modules`` are imported
    and ``ensure_builtins()`` has returned."""
    code = (
        f"import repro, repro.core, {', '.join(modules)}\n"
        "repro.core.ensure_builtins()\n"
        "print('ready', flush=True)\n"
    )
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - started)
        _, err = proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise SetupError(f"importing repro failed: {err.strip()[-500:]}")
    return statistics.median(times)


def add_layer_metrics(outcome: Outcome, spans: List[bench_trace.Span],
                      rounds: int) -> None:
    """Per-round totals for every span name: self seconds as ``<name>_s``
    and outermost calls as ``<name>_calls`` (``core.<op>.<backend>`` spans
    as ``core.<op>_s.<backend>`` and ``core.<op>_calls.<backend>``).
    A report section is the root of its span tree, so its whole duration
    is reported rather than its self time."""
    for name, (seconds, calls) in bench_trace.layer_totals(spans).items():
        if name.startswith("experiments."):
            walls = sum(s[3] - s[2] for s in spans if s[1] == name)
            outcome.metrics[f"{name}_s"] = walls / rounds
            continue
        if name.startswith("core."):
            _, op, backend = name.split(".")
            keys = (f"core.{op}_s.{backend}", f"core.{op}_calls.{backend}")
        else:
            keys = (f"{name}_s", f"{name}_calls")
        outcome.metrics[keys[0]] = seconds / rounds
        outcome.metrics[keys[1]] = calls / rounds


def add_evaluate_metrics(outcome: Outcome, algorithms: Sequence[Any]) -> None:
    """Evaluator calls and the share of them that met a new ball assignment."""
    lookups = sum(alg.cache.stats.lookups for alg in algorithms)
    misses = sum(alg.cache.stats.misses for alg in algorithms)
    outcome.metrics["speedup.evaluate_calls"] = lookups
    outcome.metrics["speedup.distinct_evaluate_ratio"] = misses / lookups if lookups else 0.0


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
FULL_SIZES = (50, 200, 800, 3200)


def _report_sections(seed: int) -> List[Tuple[str, Callable[[], List[Tuple[str, bool]]]]]:
    """The CLI's serial report, section by section, with its verdicts."""
    from repro import experiments as ex

    def table1():
        r = ex.run_table1(sizes=FULL_SIZES, rng_seed=seed)
        r.format_table()
        return [("Table 1 verified", all(row.all_verified for row in r.rows))]

    def logstar_sweep():
        r = ex.run_logstar_sweep(id_bits=(8, 64, 1024, 16384), tree_depth=3,
                                 rng_seed=seed)
        return [("log* sweep monotone", r.monotone_in_log_star())]

    def speedup_figures():
        r = ex.run_speedup_figures(method="exact")
        r.format_table()
        return [("speedup lemma bounds hold", r.all_bounds_hold())]

    def theorem4():
        r = ex.run_theorem4(sizes=FULL_SIZES)
        return [("Theorem 4 verified", r.all_verified())]

    def classification():
        r = ex.run_classification(sizes=FULL_SIZES)
        r.format_table()
        return [("classification verified", all(row.all_verified for row in r.rows))]

    def lemma2():
        r = ex.run_lemma2(sizes=FULL_SIZES, rng_seed=seed)
        return [("Lemma 2 constant", r.rounds_are_constant())]

    def claim10():
        r = ex.run_claim10(depth=10, ts=(1, 2), seed_radius=2, verify_pairwise=False)
        return [("Claim 10 bounds", r.all_bounds_hold())]

    def recurrence():
        r = ex.run_recurrence_experiment(heights=(8, 10, 12, 14))
        r.format_table()
        return [("Theorem 13 crossover at 2^^10", r.crossover_height == 10)]

    def cycle_trichotomy():
        r = ex.run_cycle_trichotomy(sizes=(16, 64, 256, 1024))
        r.format_table()
        return [("trichotomy verified", all(row.all_verified for row in r.rows))]

    def linial():
        r = ex.run_linial_experiment(check_threshold=True, rng_seed=seed)
        r.format_table()
        return [("Linial equivalence valid", r.derived_algorithm_valid),
                ("N_1(7) not 3-colorable", r.threshold_m == 7)]

    def global_failure():
        r = ex.run_global_failure(sizes=(3, 6, 9, 12), trials=120, rng_seed=seed)
        r.format_table()
        return [("global success decays", r.success_decays())]

    sections = [table1, logstar_sweep, speedup_figures, theorem4, classification,
                lemma2, claim10, recurrence, cycle_trichotomy, linial,
                global_failure]
    return [(f.__name__, f) for f in sections]


#: Verdicts per section when a section raises before reporting any.
_SECTION_VERDICTS = {"linial": 2}


def _run_in_process(outcome: Outcome, name: str, seed: int, seconds: float,
                    trace: bool, modules: Sequence[str],
                    operations: Sequence[Tuple[str, Callable[[], Any]]],
                    min_rounds: int) -> List[Tuple[str, Any]]:
    """Run ``operations`` in rounds in this process until ``seconds`` have
    passed and ``min_rounds`` rounds are done; (key, result) for each call
    of every round, ``None`` where the call raised.

    Untraced, a round's wall is also its latency sample: a reader waits
    for the whole report.  Traced, one more round runs with every layer
    wrapped, and each operation is the root span of its request.
    """
    if not trace:
        outcome.metrics["setup_s"] = python_setup_seconds(modules, PYTHON_SETUPS)
    import repro.core

    repro.core.ensure_builtins()
    recorder = bench_trace.Recorder()
    results: List[Tuple[str, Any]] = []

    def one_round(traced: bool) -> None:
        for key, operation in operations:
            try:
                if traced:
                    got = recorder.call(key, operation, (), {}, key)
                else:
                    got = operation()
            except Exception:  # a crashed operation fails its checks
                traceback.print_exc()
                got = None
            results.append((key, got))

    walls: List[float] = []
    started = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - started < seconds:
        round_start = time.perf_counter()
        one_round(False)
        walls.append(time.perf_counter() - round_start)
    if not trace:
        round_metrics(outcome, walls, len(operations), walls)
        outcome.metrics["peak_rss_mb"] = own_peak_rss_mb()
        return results
    bench_trace.instrument(recorder)
    started = time.perf_counter()
    one_round(True)
    traced_wall = time.perf_counter() - started
    add_layer_metrics(outcome, recorder.spans, 1)
    add_evaluate_metrics(outcome, list(recorder.algorithms.values()))
    outcome.metrics["trace_overhead_frac"] = traced_wall / statistics.median(walls) - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    recorder.dump(str(OUT_DIR / f"spans-{name}-{seed}.jsonl"))
    return results


def run_report(seed: int, seconds: float, trace: bool) -> Outcome:
    """The full paper report; one operation per verdict."""
    outcome = Outcome()
    sections = [(f"experiments.{name}", fn) for name, fn in _report_sections(seed)]
    results = _run_in_process(outcome, "report", seed, seconds, trace,
                              ["repro.experiments"], sections, min_rounds=1)
    for key, verdicts in results:
        if verdicts is None:
            verdicts = [(key, False)] * _SECTION_VERDICTS.get(key.split(".")[1], 1)
        outcome.attempted += len(verdicts)
        for label, ok in verdicts:
            if not ok:
                outcome.fail(1, f"verdict failed: {label}")
    return outcome


# ----------------------------------------------------------------------
# exact-failure
# ----------------------------------------------------------------------
EXACT_ALGORITHMS = ("local_maximum_coloring", "smaller_count_coloring",
                    "parity_coloring")
#: (task, k, bits): node failure at k=1, bits=5; the whole ladder at k=2, bits=2.
EXACT_TASKS = (("node_local_failure", 1, 5), ("run_speedup_pipeline", 2, 2))


def _exact_task(task: str, alg_name: str, k: int, bits: int) -> List[Tuple[Fraction, bool]]:
    """One exact computation on a fresh (cold-memo) algorithm: its
    probabilities, each with its exact flag."""
    import repro.speedup as speedup

    alg = getattr(speedup, alg_name)(k, bits=bits)
    if task == "node_local_failure":
        estimate = speedup.node_local_failure(alg, method="exact")
        return [(estimate.probability, estimate.exact)]
    result = speedup.run_speedup_pipeline(alg, method="exact")
    return [(s.measured_failure.probability, s.measured_failure.exact)
            for s in result.stages]


def run_exact_failure(seed: int, seconds: float, trace: bool) -> Outcome:
    """Exact failure probabilities; one operation per probability.

    The algorithms are the paper's, so the inputs do not depend on the
    seed; it only shuffles the order of the six computations.
    """
    outcome = Outcome()
    with open(HERE / "golden.json", encoding="utf-8") as source:
        golden = json.load(source)["exact-failure"]
    tasks = [(f"{task}/{alg}", functools.partial(_exact_task, task, alg, k, bits))
             for task, k, bits in EXACT_TASKS for alg in EXACT_ALGORITHMS]
    random.Random(seed).shuffle(tasks)
    # Two rounds at least: one ~10 s round is a single sample of a machine
    # whose speed drifts by 10-20% from one such window to the next.
    results = _run_in_process(outcome, "exact-failure", seed, seconds, trace,
                              ["repro.speedup"], tasks, min_rounds=2)
    for key, got in results:
        want = golden[key]
        outcome.attempted += len(want)
        if got is None:
            outcome.fail(len(want), f"{key} raised")
            continue
        wrong = sum(
            1 for i, expected in enumerate(want)
            if i >= len(got) or not got[i][1] or got[i][0] != Fraction(expected)
        ) + max(0, len(got) - len(want))
        if wrong:
            outcome.fail(wrong, f"{key}: {[str(p) for p, _ in got]} != {want}")
    return outcome


# ----------------------------------------------------------------------
# serve-single / serve-batch
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro.serve`` process, started and always stopped by us."""

    def __init__(self, command: List[str]):
        self.command = command
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.setup_s = 0.0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None

    def _drain(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def start(self, timeout: float = 60.0) -> "Daemon":
        """Spawn; return once it is listening and answers ``/healthz``."""
        from repro.serve.client import ServiceClient

        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command, cwd=ROOT, env=child_env(), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        deadline = started + timeout
        output = []
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise SetupError("daemon did not announce its port in time")
            if line is None:
                raise SetupError("daemon exited before listening:\n" + "".join(output))
            output.append(line)
            if "listening on" in line:
                address = line.rsplit(" ", 1)[-1].strip()
                self.host, _, port = address.rpartition(":")
                self.port = int(port)
                break
        with ServiceClient(self.host, self.port) as client:
            client.healthz()
        self.setup_s = time.perf_counter() - started
        return self

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``), in MB."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise SetupError("no VmHWM in /proc status")

    def stop(self) -> int:
        """Shut down gracefully, else interrupt, else kill; always reap."""
        from repro.serve.client import ServiceClient

        proc = self.proc
        if proc is None:
            return 0
        self.proc = None
        try:
            if proc.poll() is None:
                with ServiceClient(self.host, self.port, timeout=30) as client:
                    client.shutdown()
                proc.wait(timeout=60)
        except Exception:  # the daemon is wedged or gone: stop it harder
            if proc.poll() is None:
                proc.send_signal(2)  # SIGINT: the daemon drains and exits
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=10)
        return proc.returncode


def _serve_command(spans_out: Optional[Path]) -> List[str]:
    if spans_out is None:
        return [sys.executable, "-m", "repro.serve", "--port", "0"]
    return [sys.executable, str(HERE / "serve_launcher.py"), str(spans_out),
            "--port", "0"]


@dataclasses.dataclass
class Load:
    """What one closed-loop load phase saw."""

    specs: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    reports: List[Any] = dataclasses.field(default_factory=list)
    #: (labels, client latency) per POST.
    requests: List[Tuple[List[str], float]] = dataclasses.field(default_factory=list)
    round_walls: List[float] = dataclasses.field(default_factory=list)
    metrics_before: Dict[str, Any] = dataclasses.field(default_factory=dict)
    metrics_after: Dict[str, Any] = dataclasses.field(default_factory=dict)


def _round_specs(seed: int, round_no: int, n: int, tag: str) -> List[Dict[str, Any]]:
    """Round ``round_no``'s specs from the loadgen generator, uniquely labelled."""
    from repro.serve.loadgen import mixed_specs

    specs = mixed_specs(ROUND_SPECS, seed=seed * 100_003 + round_no, n=n)
    for spec in specs:
        spec["label"] = f"{tag}{round_no}-{spec['label']}"
    return specs


def _drive(daemon: Daemon, outcome: Outcome, seed: int, n: int, batch: int,
           seconds: float) -> Load:
    """One warm-up round, then closed-loop rounds for ``seconds``, from one
    keep-alive client that sends the next request when a reply arrives."""
    from repro.serve.client import ServiceClient

    load = Load()

    def one_round(client: ServiceClient, specs: List[Dict[str, Any]],
                  keep: bool) -> None:
        for first in range(0, len(specs), batch):
            unit = specs[first:first + batch]
            started = time.perf_counter()
            try:
                if batch == 1:
                    got = [client.simulate(unit[0])]
                else:
                    got = client.simulate_many(unit)
            except Exception as exc:  # counted as failed, never raised
                if not keep:  # timed specs are counted by _verify
                    outcome.attempted += len(unit)
                outcome.fail(len(unit), f"{unit[0]['label']}: {exc!r}")
                client.close()
                got = [None] * len(unit)
            else:
                if keep:
                    load.requests.append(([s["label"] for s in unit],
                                          time.perf_counter() - started))
            if keep:
                load.specs.extend(unit)
                load.reports.extend(got)

    with ServiceClient(daemon.host, daemon.port, timeout=120) as client:
        one_round(client, _round_specs(seed, 0, n, "w"), keep=False)
        load.metrics_before = client.metrics()
        started = time.perf_counter()
        while not load.round_walls or time.perf_counter() - started < seconds:
            specs = _round_specs(seed, len(load.round_walls) + 1, n, "r")
            round_start = time.perf_counter()
            one_round(client, specs, keep=True)
            load.round_walls.append(time.perf_counter() - round_start)
        load.metrics_after = client.metrics()
    return load


def _verify(outcome: Outcome, load: Load, seed: int) -> None:
    """Every served report must equal an in-process cold direct run."""
    from repro.core.engine import simulate
    from repro.serve.protocol import build_request

    outcome.attempted += len(load.specs)
    plain = [i for i, spec in enumerate(load.specs)
             if spec["algorithm"]["name"] != "flood-leader-parity"]
    layout_checks = set(random.Random(seed).sample(
        plain, min(REFERENCE_LAYOUT_CHECKS, len(plain))))
    for i, (spec, report) in enumerate(zip(load.specs, load.reports)):
        if report is None:
            continue  # already counted as failed by the client
        try:
            request = build_request(spec)
            expected = simulate(dataclasses.replace(request, layout="kernel"),
                                engine="direct")
            ok = report.identity() == expected.identity()
            if ok and i in layout_checks:
                ok = report.identity() == simulate(request, engine="direct").identity()
        except Exception as exc:  # counted as failed, never raised
            outcome.fail(1, f"{spec['label']}: reference run raised {exc!r}")
            continue
        if not ok:
            outcome.fail(1, f"{spec['label']}: served report differs from direct")


def _hit_ratio(load: Load, hits: str, misses: str) -> float:
    def delta(key: str) -> int:
        return load.metrics_after.get(key, 0) - load.metrics_before.get(key, 0)

    looked = delta(hits) + delta(misses)
    return delta(hits) / looked if looked else 0.0


def _serve_layer_metrics(outcome: Outcome, load: Load,
                         spans: List[bench_trace.Span]) -> None:
    rounds = len(load.round_walls) + 1  # the warm-up round is in the spans too
    add_layer_metrics(outcome, spans, rounds)
    # The dispatcher hands every micro-batch, even of one spec, to run_many.
    engine = bench_trace.outermost(spans, "core.run_many.service")
    by_label: Dict[str, List[Tuple[float, float]]] = {}
    batched = total = 0
    for _, _, start, end, _, rid in engine:
        labels = rid.split(",") if rid else []
        total += len(labels)
        if len(labels) > 1:
            batched += len(labels)
        for label in labels:
            by_label.setdefault(label, []).append((start, end))
    engine_s, wire_s = [], []
    for labels, latency in load.requests:
        intervals = {iv for label in labels for iv in by_label.get(label, ())}
        busy = bench_trace.covered(list(intervals))
        engine_s.append(busy)
        wire_s.append(latency - busy)
    metrics = outcome.metrics
    metrics["serve.engine_s"] = statistics.median(engine_s)
    metrics["serve.wire_s"] = statistics.median(wire_s)
    metrics["serve.batched_share"] = batched / total if total else 0.0
    metrics["serve.table_hit_ratio"] = _hit_ratio(load, "table_hits", "table_misses")
    metrics["serve.graph_hit_ratio"] = _hit_ratio(load, "graph_hits", "graph_misses")


def _serve_phase(outcome: Outcome, seed: int, n: int, batch: int,
                 seconds: float, spans_out: Optional[Path],
                 setups: int) -> Tuple[Load, float, float]:
    """Start ``setups`` daemons one after another (the last one serves the
    load), drive it, read its peak RSS and stop it.
    Returns (load, median set-up seconds, peak RSS in MB)."""
    command = _serve_command(spans_out)
    setup_times = []
    for _ in range(setups - 1):
        daemon = Daemon(command)
        try:
            daemon.start()
            setup_times.append(daemon.setup_s)
        finally:
            daemon.stop()
    daemon = Daemon(command)
    try:
        daemon.start()
        setup_times.append(daemon.setup_s)
        load = _drive(daemon, outcome, seed, n, batch, seconds)
        rss = daemon.peak_rss_mb()
    finally:
        code = daemon.stop()
    if code != 0:
        outcome.fail(1, f"daemon exited with code {code}")
        outcome.attempted += 1
    return load, statistics.median(setup_times), rss


def _run_serve(seed: int, seconds: float, trace: bool, n: int, batch: int,
               name: str) -> Outcome:
    outcome = Outcome()
    import repro.core
    import repro.serve.client  # noqa: F401

    repro.core.ensure_builtins()
    if not trace:
        load, setup, rss = _serve_phase(outcome, seed, n, batch, seconds,
                                        None, DAEMON_SETUPS)
        _verify(outcome, load, seed)
        latencies = [latency for _, latency in load.requests]
        outcome.metrics["setup_s"] = setup
        round_metrics(outcome, load.round_walls, ROUND_SPECS, latencies)
        outcome.metrics["peak_rss_mb"] = rss
        return outcome
    plain, _, _ = _serve_phase(outcome, seed, n, batch, seconds, None, 1)
    OUT_DIR.mkdir(exist_ok=True)
    spans_out = OUT_DIR / f"spans-{name}-{seed}.jsonl"
    traced, _, _ = _serve_phase(outcome, seed, n, batch, seconds, spans_out, 1)
    _verify(outcome, plain, seed)
    _verify(outcome, traced, seed)
    spans = bench_trace.load_spans(str(spans_out))
    _serve_layer_metrics(outcome, traced, spans)
    latency_metrics(outcome, [latency for _, latency in traced.requests])
    outcome.metrics["trace_overhead_frac"] = (
        statistics.median(traced.round_walls)
        / statistics.median(plain.round_walls) - 1.0)
    return outcome


def run_serve_single(seed: int, seconds: float, trace: bool) -> Outcome:
    """n=2000 specs, one per request."""
    return _run_serve(seed, seconds, trace, n=2000, batch=1, name="serve-single")


def run_serve_batch(seed: int, seconds: float, trace: bool) -> Outcome:
    """n=500 specs, seven consecutive (one per template) per request."""
    return _run_serve(seed, seconds, trace, n=500, batch=7, name="serve-batch")


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "report": run_report,
    "exact-failure": run_exact_failure,
    "serve-single": run_serve_single,
    "serve-batch": run_serve_batch,
}
