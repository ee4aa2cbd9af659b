"""Fault-injection tests: the sharded engine degrades, never lies.

Each test plants one failure mode from ``repro/conformance/faults.py``
and asserts the degradation contract documented in
``repro/core/sharded.py``: outputs stay bit-identical to the direct
backend, the reason lands in ``SimReport.info["degraded"]``, and the
``degraded`` tracer event fires so metrics count it.
"""

import pytest

from repro.conformance.faults import (
    CorruptedSeedEngine,
    CrashInWorkerRule,
    FaultOutcome,
    UnpicklableRule,
    run_fault_suite,
)
from repro.core.engine import SimRequest, simulate
from repro.core.sharded import ShardedEngine
from repro.graphs.generators import path
from repro.instrumentation.metrics import MetricsTracer, RunMetrics

FAST_TIMEOUT = 2.0


@pytest.fixture
def engine():
    eng = ShardedEngine(shards=2, timeout=FAST_TIMEOUT)
    yield eng
    eng.close()


def _view_request(algorithm, n=8):
    # Distinct ids give every node its own view class, forcing sharding.
    return SimRequest(
        kind="view",
        graph=path(n),
        algorithm=algorithm,
        ids=list(range(1, n + 1)),
        label=f"fault-test:{algorithm.name}",
    )


def test_worker_crash_degrades_and_recovers(engine):
    request = _view_request(CrashInWorkerRule())
    tracer = MetricsTracer()
    report = engine.run(request, tracer=tracer)
    assert report.info["degraded"].startswith("pool-error")
    assert report.info["pooled"] is False
    assert report.identity() == simulate(request, engine="direct").identity()
    assert tracer.metrics.degradations == 1
    assert tracer.metrics.degraded_reasons[0].startswith("pool-error")


def test_unpicklable_payload_detected_before_dispatch(engine):
    request = _view_request(UnpicklableRule())
    tracer = MetricsTracer()
    report = engine.run(request, tracer=tracer)
    assert report.info["degraded"] == "unpicklable"
    assert report.identity() == simulate(request, engine="direct").identity()
    assert "unpicklable" in tracer.metrics.degraded_reasons


def test_corrupted_shard_seeds_cannot_change_outputs():
    from repro.algorithms.view_rules import DegreeProfileRule

    engine = CorruptedSeedEngine(shards=2, timeout=FAST_TIMEOUT)
    try:
        request = _view_request(DegreeProfileRule(radius=1))
        report = engine.run(request)
        assert "degraded" not in report.info
        assert report.identity() == simulate(
            request, engine="direct"
        ).identity()
    finally:
        engine.close()


def test_run_many_crash_annotates_every_report(engine):
    requests = [_view_request(CrashInWorkerRule(), n=6 + i) for i in range(3)]
    tracer = MetricsTracer()
    reports = engine.run_many(requests, tracer=tracer)
    assert len(reports) == 3
    for request, report in zip(requests, reports):
        assert str(report.info["degraded"]).startswith("pool-error")
        assert report.identity() == simulate(
            request, engine="direct"
        ).identity()
    assert tracer.metrics.degradations >= 1


def test_pool_respawns_after_crash(engine):
    from repro.algorithms.view_rules import DegreeProfileRule

    crashed = engine.run(_view_request(CrashInWorkerRule()))
    assert "degraded" in crashed.info
    clean_request = _view_request(DegreeProfileRule(radius=1))
    clean = engine.run(clean_request)
    assert clean.info["pooled"] is True
    assert "degraded" not in clean.info
    assert clean.identity() == simulate(
        clean_request, engine="direct"
    ).identity()


def test_crash_rule_is_harmless_in_process():
    # The daemon guard must keep the crash inside pool workers: running
    # the rule on the direct backend (this very process) must succeed.
    report = simulate(_view_request(CrashInWorkerRule()), engine="direct")
    assert report.outputs == [1, 2, 2, 2, 2, 2, 2, 1]  # path degrees


def test_fault_suite_all_paths_hold():
    outcomes = run_fault_suite(timeout=FAST_TIMEOUT)
    assert [o.fault for o in outcomes] == [
        "worker-crash-view",
        "unpicklable-payload",
        "corrupted-shard-seeds",
        "worker-crash-run-many",
        "pool-restart-after-crash",
    ]
    for outcome in outcomes:
        assert isinstance(outcome, FaultOutcome)
        assert outcome.ok, (outcome.fault, outcome.detail)


def test_metrics_round_trip_includes_degradations():
    tracer = MetricsTracer()
    tracer.on_event("degraded", engine="sharded", reason="unpicklable")
    tracer.on_event("degraded", engine="sharded", reason="pool-error: RuntimeError: boom")
    data = tracer.metrics.to_dict()
    assert RunMetrics().to_dict()["degradations"] == 0
    assert data["degradations"] == 2
    assert data["degraded_reasons"] == [
        "unpicklable", "pool-error: RuntimeError: boom",
    ]
