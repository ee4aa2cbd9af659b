"""Regression tests: ``ShardedEngine.run_many`` metrics folding.

The folded parent-side totals must equal the per-shard sums exactly —
on the pooled path, on the fully-degraded path, and (the regression
that motivated the per-chunk rework) on a *mixed* batch where some
chunks pool and others degrade.  The old implementation decided
degradation for the whole batch and relayed pooled metrics inside its
``try`` block, so an exception after a partial relay re-folded every
request through the serial mirror, double-counting ``cache_*`` fields.
The rework performs one assembly pass after all evaluation: exactly one
``subrun`` event per request, one ``degraded`` per degraded chunk.
"""

import pytest

from repro.algorithms.view_rules import make_view_rule
from repro.core import SimRequest, simulate
from repro.core.engine import resolve_engine
from repro.core.sharded import ShardedEngine, _split
from repro.graphs.generators import cycle
from repro.instrumentation.metrics import MetricsTracer
from repro.local_model.edge_model import EdgeViewAlgorithm


def _view_request(i, n=12):
    return SimRequest(
        kind="view",
        graph=cycle(n),
        algorithm=make_view_rule("local-max", radius=1),
        ids=list(range(n)),
        label=f"fold-view-{i}",
    )


def _lambda_edge_request(i, n=10):
    # A lambda cannot cross a process boundary: its chunk must degrade.
    return SimRequest(
        kind="edge",
        graph=cycle(n),
        algorithm=EdgeViewAlgorithm(1, lambda view: view.node_count),
        randomness=[3] * n,
        label=f"fold-edge-{i}",
    )


def _per_shard_sums(requests, shards):
    """The ground truth: run each request of each contiguous chunk on a
    fresh cached engine (exactly what workers and the serial path do)
    and sum the per-request metrics."""
    totals = {"cache_lookups": 0, "cache_hits": 0, "cache_misses": 0,
              "cache_distinct_classes": 0, "subruns": 0}
    reports = []
    for chunk in _split(requests, shards):
        for request in chunk:
            metrics = MetricsTracer()
            reports.append(resolve_engine("cached").run(request, tracer=metrics))
            m = metrics.metrics
            totals["cache_lookups"] += m.cache_lookups
            totals["cache_hits"] += m.cache_hits
            totals["cache_misses"] += m.cache_misses
            totals["cache_distinct_classes"] += m.cache_distinct_classes
            totals["subruns"] += 1
    return totals, reports


def _assert_fold_matches(tracer, expected):
    m = tracer.metrics
    for name, want in expected.items():
        assert getattr(m, name) == want, (
            f"{name}: folded {getattr(m, name)} != per-shard sum {want}"
        )


@pytest.mark.parametrize("shards", [2, 3])
def test_pooled_batch_folds_exact_per_shard_sums(shards):
    requests = [_view_request(i) for i in range(4)]
    expected, want_reports = _per_shard_sums(requests, shards)
    engine = ShardedEngine(shards=shards)
    try:
        tracer = MetricsTracer()
        reports = engine.run_many(requests, tracer=tracer)
    finally:
        engine.close()
    _assert_fold_matches(tracer, expected)
    assert tracer.metrics.degradations == 0
    for got, want in zip(reports, want_reports):
        assert got.identity() == want.identity()
        assert "degraded" not in got.info


def test_fully_degraded_batch_folds_exact_per_shard_sums():
    requests = [_lambda_edge_request(i) for i in range(3)]
    expected, want_reports = _per_shard_sums(requests, 2)
    engine = ShardedEngine(shards=2)
    try:
        tracer = MetricsTracer()
        reports = engine.run_many(requests, tracer=tracer)
    finally:
        engine.close()
    _assert_fold_matches(tracer, expected)
    # One degraded event per degraded chunk (both chunks are unpicklable).
    assert tracer.metrics.degradations == 2
    assert tracer.metrics.degraded_reasons == ["unpicklable", "unpicklable"]
    for got, want in zip(reports, want_reports):
        assert got.identity() == want.identity()
        assert got.info["degraded"] == "unpicklable"


def test_mixed_batch_pools_healthy_chunk_and_degrades_the_other():
    """The motivating case: chunk 1 picklable, chunk 2 holds lambdas.

    Folded totals must equal per-shard sums (no double-count), only
    the degraded chunk's reports carry ``info["degraded"]``, and every
    report stays bit-identical to a direct run.
    """
    requests = [_view_request(0), _view_request(1),
                _lambda_edge_request(2), _lambda_edge_request(3)]
    expected, _ = _per_shard_sums(requests, 2)
    engine = ShardedEngine(shards=2)
    try:
        tracer = MetricsTracer()
        reports = engine.run_many(requests, tracer=tracer)
    finally:
        engine.close()
    _assert_fold_matches(tracer, expected)
    assert tracer.metrics.degradations == 1
    assert tracer.metrics.degraded_reasons == ["unpicklable"]
    assert "degraded" not in reports[0].info
    assert "degraded" not in reports[1].info
    assert reports[2].info["degraded"] == "unpicklable"
    assert reports[3].info["degraded"] == "unpicklable"
    for request, report in zip(requests, reports):
        assert report.identity() == simulate(request, engine="direct").identity()


def test_untraced_mixed_batch_matches_direct():
    requests = [_view_request(0), _view_request(1),
                _lambda_edge_request(2)]
    engine = ShardedEngine(shards=2)
    try:
        reports = engine.run_many(requests)
    finally:
        engine.close()
    assert "degraded" not in reports[0].info
    assert reports[2].info["degraded"] == "unpicklable"
    for request, report in zip(requests, reports):
        assert report.identity() == simulate(request, engine="direct").identity()


def test_relay_exception_does_not_refold_the_batch():
    """A tracer that raises mid-relay must propagate, never re-fold.

    The old implementation caught *any* exception from the pooled
    branch — including one raised by the user's tracer after some
    requests were already relayed — and re-ran the whole batch through
    the serial mirror, folding those requests' counters twice."""

    class ExplodingTracer(MetricsTracer):
        def __init__(self):
            super().__init__()
            self.relayed = 0

        def on_event(self, name, /, **attrs):
            if name == "subrun":
                self.relayed += 1
                if self.relayed == 2:
                    raise RuntimeError("tracer exploded mid-relay")
            super().on_event(name, **attrs)

    requests = [_view_request(i) for i in range(4)]
    engine = ShardedEngine(shards=2)
    try:
        tracer = ExplodingTracer()
        with pytest.raises(RuntimeError, match="mid-relay"):
            engine.run_many(requests, tracer=tracer)
    finally:
        engine.close()
    # Exactly one subrun folded (the second relay raised before
    # folding); nothing was double-counted by a serial re-run.
    assert tracer.metrics.subruns == 1
    single = MetricsTracer()
    resolve_engine("cached").run(requests[0], tracer=single)
    assert tracer.metrics.cache_lookups == single.metrics.cache_lookups


def test_single_chunk_batch_runs_in_process_without_degradation():
    engine = ShardedEngine(shards=4)
    try:
        tracer = MetricsTracer()
        reports = engine.run_many([_lambda_edge_request(0)], tracer=tracer)
    finally:
        engine.close()
    # One chunk: the in-process path is the happy path, not a fallback.
    assert tracer.metrics.degradations == 0
    assert "degraded" not in reports[0].info
    assert tracer.metrics.subruns == 1
