"""Fault injection for :class:`~repro.core.sharded.ShardedEngine`.

Each fault drives the engine into one documented degradation path and
asserts the contract from ``repro/core/sharded.py``'s docstring: the
run **completes with bit-identical results**, the reason is surfaced
as ``SimReport.info["degraded"]``, and the ``degraded`` tracer event
fires (so :class:`~repro.instrumentation.metrics.MetricsTracer` counts
it).

Faults
------
``worker-crash-view``
    A view rule that kills its pool worker mid-shard (``os._exit``,
    guarded to fire only in daemonic processes).  The pool never
    answers; the engine's ``timeout`` converts the hang into a
    ``pool-error`` degradation and an in-process re-evaluation.
``unpicklable-payload``
    An algorithm carrying a lambda cannot cross the process boundary;
    the engine must detect this *before* dispatch and degrade with
    reason ``unpicklable``.
``corrupted-shard-seeds``
    Shard seeds feed tracing only — an engine whose seed derivation is
    sabotaged must still produce bit-identical outputs (the
    conformance analogue of the differential suite's backend-identity
    check).
``worker-crash-run-many``
    Same crash, batch path: every report in the batch must carry the
    degradation and match the direct backend.
``pool-restart-after-crash``
    After a crash-induced teardown, the *same* engine must respawn its
    pool and run pooled again.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, List, Optional

from ..core.engine import SimRequest, simulate
from ..core.sharded import ShardedEngine
from ..graphs.generators import path
from ..instrumentation.metrics import MetricsTracer
from ..local_model.algorithm import ViewAlgorithm

__all__ = [
    "FaultOutcome",
    "CrashInWorkerRule",
    "UnpicklableRule",
    "CorruptedSeedEngine",
    "run_fault_suite",
]


class CrashInWorkerRule(ViewAlgorithm):
    """Outputs the center's degree — but kills any daemonic pool worker.

    The daemon guard is what makes the fault *injectable*: pool workers
    are daemonic, the parent (and the in-process fallback) is not, so
    the crash happens exactly where a real mid-shard worker death
    would, and the recovery path computes real outputs.
    """

    def __init__(self, radius: int = 1):
        self.radius = radius
        self.name = "crash-in-worker"

    def output(self, view: Any) -> int:
        if multiprocessing.current_process().daemon:
            os._exit(1)
        return view.degrees[view.center]


class UnpicklableRule(ViewAlgorithm):
    """Outputs the center's degree; carries a lambda so it cannot pickle."""

    def __init__(self, radius: int = 1):
        self.radius = radius
        self.name = "unpicklable-rule"
        self._poison = lambda: None  # defeats pickling on purpose

    def output(self, view: Any) -> int:
        return view.degrees[view.center]


class CorruptedSeedEngine(ShardedEngine):
    """A sharded engine whose per-shard seed derivation is sabotaged."""

    def _shard_seeds(self, request: SimRequest, count: int) -> List[int]:
        return [0xBAD5EED] * count


@dataclass
class FaultOutcome:
    """One injected fault and whether the degradation contract held."""

    fault: str
    ok: bool
    degraded: Optional[str]
    detail: str


def _view_request(algorithm: ViewAlgorithm, n: int = 8) -> SimRequest:
    graph = path(n)
    # Distinct ids => n distinct view classes => the engine shards.
    return SimRequest(
        kind="view",
        graph=graph,
        algorithm=algorithm,
        ids=list(range(1, n + 1)),
        label=f"fault:{algorithm.name}",
    )


def _reference_outputs(request: SimRequest) -> Any:
    return simulate(request, engine="direct").identity()


def _check_worker_crash(timeout: float) -> FaultOutcome:
    engine = ShardedEngine(shards=2, timeout=timeout)
    try:
        request = _view_request(CrashInWorkerRule())
        tracer = MetricsTracer()
        report = engine.run(request, tracer=tracer)
        degraded = report.info.get("degraded")
        problems = []
        if report.identity() != _reference_outputs(request):
            problems.append("outputs differ from the direct backend")
        if report.info.get("pooled") is not False:
            problems.append("report claims the pooled path ran")
        if not (degraded or "").startswith("pool-error"):
            problems.append(f"degraded reason is {degraded!r}")
        if tracer.metrics.degradations < 1:
            problems.append("tracer saw no degraded event")
        return FaultOutcome(
            fault="worker-crash-view",
            ok=not problems,
            degraded=degraded,
            detail="; ".join(problems) or "degraded and recovered in-process",
        )
    finally:
        engine.close()


def _check_unpicklable(timeout: float) -> FaultOutcome:
    engine = ShardedEngine(shards=2, timeout=timeout)
    try:
        request = _view_request(UnpicklableRule())
        tracer = MetricsTracer()
        report = engine.run(request, tracer=tracer)
        degraded = report.info.get("degraded")
        problems = []
        if report.identity() != _reference_outputs(request):
            problems.append("outputs differ from the direct backend")
        if degraded != "unpicklable":
            problems.append(f"degraded reason is {degraded!r}")
        if "unpicklable" not in tracer.metrics.degraded_reasons:
            problems.append("metrics did not record the reason")
        return FaultOutcome(
            fault="unpicklable-payload",
            ok=not problems,
            degraded=degraded,
            detail="; ".join(problems) or "detected before dispatch",
        )
    finally:
        engine.close()


def _check_corrupted_seeds(timeout: float) -> FaultOutcome:
    from ..algorithms.view_rules import DegreeProfileRule

    engine = CorruptedSeedEngine(shards=2, timeout=timeout)
    try:
        request = _view_request(DegreeProfileRule(radius=1))
        report = engine.run(request)
        problems = []
        if report.identity() != _reference_outputs(request):
            problems.append("corrupted shard seeds changed the outputs")
        if "degraded" in report.info:
            problems.append("clean run reported a degradation")
        return FaultOutcome(
            fault="corrupted-shard-seeds",
            ok=not problems,
            degraded=report.info.get("degraded"),
            detail="; ".join(problems)
            or "shard seeds are diagnostics only; outputs bit-identical",
        )
    finally:
        engine.close()


def _check_run_many_crash(timeout: float) -> FaultOutcome:
    engine = ShardedEngine(shards=2, timeout=timeout)
    try:
        requests = [_view_request(CrashInWorkerRule(), n=6 + i)
                    for i in range(4)]
        tracer = MetricsTracer()
        reports = engine.run_many(requests, tracer=tracer)
        problems = []
        for request, report in zip(requests, reports):
            if report.identity() != _reference_outputs(request):
                problems.append(f"{request.label}: outputs differ")
            if not str(report.info.get("degraded", "")).startswith(
                "pool-error"
            ):
                problems.append(f"{request.label}: degradation not surfaced")
        if tracer.metrics.degradations < 1:
            problems.append("tracer saw no degraded event")
        degraded = reports[0].info.get("degraded") if reports else None
        return FaultOutcome(
            fault="worker-crash-run-many",
            ok=not problems,
            degraded=degraded,
            detail="; ".join(problems[:3])
            or "whole batch degraded to the serial path",
        )
    finally:
        engine.close()


def _check_pool_restart(timeout: float) -> FaultOutcome:
    from ..algorithms.view_rules import DegreeProfileRule

    engine = ShardedEngine(shards=2, timeout=timeout)
    try:
        crash = engine.run(_view_request(CrashInWorkerRule()))
        clean_request = _view_request(DegreeProfileRule(radius=1))
        clean = engine.run(clean_request)
        problems = []
        if "degraded" not in crash.info:
            problems.append("crash run did not degrade")
        if clean.info.get("pooled") is not True:
            problems.append("engine did not respawn its pool")
        if clean.identity() != _reference_outputs(clean_request):
            problems.append("post-restart outputs differ")
        return FaultOutcome(
            fault="pool-restart-after-crash",
            ok=not problems,
            degraded=crash.info.get("degraded"),
            detail="; ".join(problems)
            or "pool respawned; pooled run bit-identical",
        )
    finally:
        engine.close()


def run_fault_suite(timeout: float = 2.0) -> List[FaultOutcome]:
    """Inject every fault; one outcome each, crashes folded into ``ok``.

    ``timeout`` is the sharded engine's pool timeout for the crash
    faults — the window after which a dead worker's silence becomes a
    degradation.  Keep it small: each crash fault pays it once.
    """
    checks = (
        _check_worker_crash,
        _check_unpicklable,
        _check_corrupted_seeds,
        _check_run_many_crash,
        _check_pool_restart,
    )
    outcomes = []
    for check in checks:
        try:
            outcomes.append(check(timeout))
        except Exception as exc:  # a crash IS the finding
            outcomes.append(FaultOutcome(
                fault=check.__name__.replace("_check_", "").replace("_", "-"),
                ok=False,
                degraded=None,
                detail=f"harness crash: {type(exc).__name__}: {exc}",
            ))
    return outcomes
