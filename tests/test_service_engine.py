"""Unit contract of the long-lived service backend.

:class:`~repro.core.service.ServiceEngine` promises warmth without
drift: repeat requests reuse class tables, warm graphs, and memoized
partitions, yet every response stays bit-identical on ``identity()``
to a cold direct run.  This suite pins the cache layers one at a time
— table reuse, graph LRU, whole-table eviction under a byte budget,
the unkeyable-algorithm escape hatch — plus the ``service_*`` metrics
and ``service`` events that make them observable.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.message_passing import LubyMIS
from repro.algorithms.view_rules import make_view_rule
from repro.core import ENGINE_NAMES, ServiceEngine, SimRequest, resolve_engine, simulate
from repro.core.service import algorithm_cache_key
from repro.graphs import cycle, orient_torus, toroidal_grid
from repro.graphs.identifiers import random_permutation_ids
from repro.instrumentation import MetricsTracer
from repro.local_model import EdgeViewAlgorithm
from repro.serve.loadgen import mixed_specs
from repro.serve.protocol import build_request


def _view_request(n=16, radius=1, seed=3):
    graph = cycle(n)
    return SimRequest(
        kind="view",
        graph=graph,
        algorithm=make_view_rule("local-max", radius=radius),
        ids=random_permutation_ids(graph, random.Random(seed)),
        label=f"svc-view-{n}-{radius}-{seed}",
    )


def _edge_count_output(view):
    """Module-level on purpose: keyable by import path."""
    return (view.node_count, len(view.edges))


def _local_request(seed=0, n=12):
    graph = cycle(n)
    return SimRequest(
        kind="local",
        graph=graph,
        algorithm=LubyMIS(),
        ids=random_permutation_ids(graph, random.Random(seed)),
        seed=seed,
        label=f"svc-local-{seed}",
    )


def _finite_request():
    from repro.speedup import local_maximum_coloring

    graph = toroidal_grid(4, 4)
    orientation = orient_torus(graph, 4, 4)
    alg = local_maximum_coloring(2, bits=2)
    values = [random.Random(9).randrange(alg.values) for _ in graph.nodes()]
    return SimRequest(kind="finite", graph=graph, algorithm=alg,
                      orientation=orientation, values=values,
                      label="svc-finite")


def test_service_is_a_registered_backend():
    assert "service" in ENGINE_NAMES
    first = resolve_engine("service")
    second = resolve_engine("service")
    assert isinstance(first, ServiceEngine)
    assert first is not second  # warmth must not leak across callers
    report = simulate(_view_request(), engine="service")
    assert report.backend == "service"
    assert report.identity() == simulate(_view_request(), engine="direct").identity()


def test_warm_table_reuse_is_bit_identical():
    engine = ServiceEngine()
    try:
        base = simulate(_view_request(), engine="direct")
        cold = engine.run(_view_request())
        warm = engine.run(_view_request())
        assert cold.info["service"]["table_hit"] is False
        assert warm.info["service"]["table_hit"] is True
        assert cold.identity() == base.identity()
        assert warm.identity() == base.identity()
        assert engine.counters["table_hits"] == 1
        assert engine.counters["table_misses"] == 1
    finally:
        engine.close()


def test_table_reuse_spans_distinct_graph_objects():
    # The table keys on view signatures, not on the graph object, so a
    # *different* build of the same family still hits warm classes.
    engine = ServiceEngine()
    try:
        engine.run(_view_request(seed=3))
        lookups_before = engine.total_bytes()
        warm = engine.run(_view_request(seed=3))
        assert warm.info["service"]["table_hit"] is True
        assert warm.info["service"]["graph_hit"] is False  # fresh object
        assert engine.total_bytes() == lookups_before  # no new classes
    finally:
        engine.close()


def test_warm_graph_lru_bounds_and_hits():
    engine = ServiceEngine(max_graphs=2)
    try:
        g1 = engine.warm_graph("cycle", {"n": 10})
        assert engine.warm_graph("cycle", {"n": 10}) is g1
        assert engine.counters["graph_hits"] == 1
        engine.warm_graph("path", {"n": 10})
        engine.warm_graph("cycle", {"n": 12})  # evicts the LRU entry
        assert engine.service_info()["graphs"] == 2
        assert engine.warm_graph("cycle", {"n": 10}) is not g1  # rebuilt
    finally:
        engine.close()


def test_warm_graph_runs_bit_identically():
    engine = ServiceEngine()
    try:
        graph = engine.warm_graph("cycle", {"n": 16})
        request = _view_request()
        warm_request = SimRequest(
            kind="view", graph=graph, algorithm=request.algorithm,
            ids=request.ids, label=request.label,
        )
        base = simulate(_view_request(), engine="direct")
        assert engine.run(warm_request).identity() == base.identity()
        # Repeat on the same warm graph: partitions memoized, still exact.
        assert engine.run(warm_request).identity() == base.identity()
    finally:
        engine.close()


def test_eviction_under_tiny_byte_budget_stays_exact():
    engine = ServiceEngine(max_bytes=1)
    try:
        base = simulate(_view_request(), engine="direct")
        first = engine.run(_view_request())
        assert first.identity() == base.identity()
        assert engine.counters["evictions"] >= 1
        assert engine.service_info()["tables"] == 0  # all evicted
        # Post-eviction requests recompute from scratch — never warm,
        # never wrong.
        second = engine.run(_view_request())
        assert second.info["service"]["table_hit"] is False
        assert second.identity() == base.identity()
    finally:
        engine.close()


def test_no_eviction_when_budget_disabled():
    engine = ServiceEngine(max_bytes=None)
    try:
        engine.run(_view_request())
        engine.run(_view_request(n=18, seed=4))
        assert engine.counters["evictions"] == 0
        assert engine.service_info()["tables"] >= 1
    finally:
        engine.close()


def test_unkeyable_algorithm_served_from_private_table():
    def make_request():
        graph = cycle(10)
        alg = EdgeViewAlgorithm(1, lambda view: view.node_count,
                                name="svc-lambda-edge")
        return SimRequest(kind="edge", graph=graph, algorithm=alg,
                          label="svc-unkeyable")

    engine = ServiceEngine()
    try:
        base = simulate(make_request(), engine="direct")
        for expected_unkeyable in (1, 2):
            report = engine.run(make_request())
            assert report.identity() == base.identity()
            assert report.info["service"]["unkeyable"] is True
            assert report.info["service"]["table_hit"] is False
            assert engine.counters["unkeyable"] == expected_unkeyable
        assert engine.service_info()["tables"] == 0  # never shared
    finally:
        engine.close()


def test_algorithm_cache_key_is_structural():
    a = make_view_rule("local-max", radius=2)
    b = make_view_rule("local-max", radius=2)
    c = make_view_rule("local-max", radius=1)
    assert algorithm_cache_key(a) == algorithm_cache_key(b)
    assert algorithm_cache_key(a) != algorithm_cache_key(c)
    # Module-level callables key by import path ...
    keyed = EdgeViewAlgorithm(1, _edge_count_output, name="svc-keyed")
    keyed2 = EdgeViewAlgorithm(1, _edge_count_output, name="svc-keyed")
    assert algorithm_cache_key(keyed) is not None
    assert algorithm_cache_key(keyed) == algorithm_cache_key(keyed2)
    # ... anonymous ones have no stable identity.
    anon = EdgeViewAlgorithm(1, lambda view: view.node_count, name="svc-anon")
    assert algorithm_cache_key(anon) is None


def test_local_and_finite_kinds_pass_through():
    engine = ServiceEngine()
    try:
        for request_fn in (_local_request, _finite_request):
            base = simulate(request_fn(), engine="direct")
            report = engine.run(request_fn())
            assert report.identity() == base.identity()
            assert report.backend == "service"
            assert report.info["service"]["table_hit"] is False
        assert engine.service_info()["tables"] == 0
    finally:
        engine.close()


def test_run_many_mixed_batch_matches_direct():
    engine = ServiceEngine()
    try:
        requests = [
            _local_request(seed=0), _view_request(), _local_request(seed=1),
            _view_request(n=18, seed=4), _local_request(seed=2),
        ]
        expected = [simulate(r, engine="direct").identity() for r in requests]
        reports = engine.run_many(requests)
        assert [r.identity() for r in reports] == expected
        assert engine.counters["requests"] == len(requests)
    finally:
        engine.close()
    engine.close()  # idempotent


def test_graph_counters_count_each_request_once():
    # build_request looks the graph up through warm_graph, then run
    # serves it: one graph hit or miss per request, never two.
    engine = ServiceEngine()
    specs = mixed_specs(14, seed=0, n=48)
    for spec in specs:
        engine.run(build_request(spec, engine))
    counters = engine.counters
    assert counters["graph_hits"] + counters["graph_misses"] == len(specs)
    assert counters["graph_misses"] == 3  # cycle, path and torus


def test_warm_layers_stay_bounded_under_fresh_labelings():
    # Every round brings new ids/randomness, so neither the class tables
    # nor the partition memo ever see a repeat of a labeled request.
    engine = ServiceEngine()
    for round_seed in range(40):
        for spec in mixed_specs(7, seed=round_seed, n=48):
            engine.run(build_request(spec, engine))
            for graph in engine._graphs.values():
                assert len(graph.csr()._expander._memo) <= 4
            assert engine.total_bytes() <= engine.max_bytes == 2 * 1024 * 1024


def test_metrics_tracer_records_service_counters():
    # RunMetrics is per-run (run_start resets), so trace each run
    # with its own tracer and compare the cold and warm snapshots.
    engine = ServiceEngine()
    cold_tracer, warm_tracer = MetricsTracer(), MetricsTracer()
    try:
        engine.run(_view_request(), tracer=cold_tracer)
        engine.run(_view_request(), tracer=warm_tracer)
        cold, warm = cold_tracer.metrics, warm_tracer.metrics
        assert cold.service_requests == 1
        assert cold.service_table_misses == 1
        assert cold.service_table_hits == 0
        assert warm.service_requests == 1
        assert warm.service_table_hits == 1
        assert warm.service_table_misses == 0
        assert warm.service_graph_misses == 1  # fresh graph object
        assert warm.service_bytes == engine.total_bytes()  # snapshot
        assert warm.to_dict()["service_table_hits"] == 1
    finally:
        engine.close()


def test_on_service_event_shape():
    events = []

    class _Recorder(MetricsTracer):
        def on_event(self, name, /, **attrs):
            if name == "service":
                events.append((attrs["engine"], dict(attrs)))
            super().on_event(name, **attrs)

    engine = ServiceEngine()
    try:
        engine.run(_view_request(), tracer=_Recorder())
    finally:
        engine.close()
    assert len(events) == 1
    name, info = events[0]
    assert name == "service"
    assert info["event"] == "request"
    assert info["kind"] == "view"
    for field in ("requests", "table_hits", "table_misses", "graph_hits",
                  "graph_misses", "evictions", "bytes", "tables", "unkeyable"):
        assert field in info


def test_constructor_defaults_are_sane():
    engine = ServiceEngine()
    assert engine.max_bytes > 0
    assert engine.max_graphs > 0
    info = engine.service_info()
    assert info["requests"] == 0
    assert info["bytes"] == 0
    assert info["tables"] == 0
    assert info["graphs"] == 0
    engine.close()


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_warm_partition_memo_does_not_cross_radii(radius):
    # Distinct radii on the same warm graph must partition separately.
    engine = ServiceEngine()
    try:
        graph = engine.warm_graph("cycle", {"n": 14})
        for r in (radius, radius + 1):
            request = SimRequest(
                kind="view", graph=graph,
                algorithm=make_view_rule("ball-signature", radius=r),
                label=f"svc-radius-{r}",
            )
            base = simulate(SimRequest(
                kind="view", graph=cycle(14),
                algorithm=make_view_rule("ball-signature", radius=r),
                label=f"svc-radius-{r}",
            ), engine="direct")
            assert engine.run(request).identity() == base.identity()
    finally:
        engine.close()
