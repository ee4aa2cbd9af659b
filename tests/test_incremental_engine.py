"""Unit tests for :class:`repro.core.IncrementalEngine`.

The delta-differential grid (``tests/test_differential.py``) and the
hypothesis suite (``tests/test_incremental_properties.py``) prove the
bit-identity contract at scale; this module pins the engine's *edges*:
lifecycle errors, recompute-mode fallbacks, changed-node reporting,
memo survival across mutations, tracer/metrics integration, the engine
seam (``resolve_engine`` / ``simulate``), and the stale-cache fixture
being caught by the differential harness.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.edge_rules import edge_parity_output
from repro.algorithms.message_passing import LubyMIS
from repro.algorithms.view_rules import make_view_rule
from repro.core import (
    ENGINE_NAMES,
    IncrementalEngine,
    SimRequest,
    resolve_engine,
    simulate,
)
from repro.graphs import GraphDelta, GraphDeltaError, cycle, path
from repro.graphs.graph import Graph
from repro.graphs.identifiers import random_permutation_ids
from repro.instrumentation import MetricsTracer
from repro.instrumentation.tracer import Tracer
from repro.local_model.algorithm import ViewAlgorithm
from repro.local_model.edge_model import EdgeViewAlgorithm

from .differential import Case, assert_delta_case_identical


def _view_request(graph, rule="ball-signature", radius=2, **kwargs):
    return SimRequest(
        kind="view",
        graph=graph,
        algorithm=make_view_rule(rule, radius=radius),
        **kwargs,
    )


class _DeltaSpy(Tracer):
    """Capture every ``delta`` event's payload for assertion."""

    def __init__(self):
        self.events = []

    def on_event(self, name, /, **attrs):
        if name == "delta":
            self.events.append((attrs.pop("engine"), attrs))


# ----------------------------------------------------------------------
# Engine seam
# ----------------------------------------------------------------------

def test_incremental_is_a_registered_backend():
    assert "incremental" in ENGINE_NAMES
    engine = resolve_engine("incremental")
    assert isinstance(engine, IncrementalEngine)
    # Fresh state per resolution: the engine is stateful, like cached.
    assert engine is not resolve_engine("incremental")


def test_simulate_by_name_matches_direct():
    request = _view_request(cycle(12))
    report = simulate(request, engine="incremental")
    assert report.backend == "incremental"
    assert report.identity() == simulate(request, engine="direct").identity()


# ----------------------------------------------------------------------
# Lifecycle errors
# ----------------------------------------------------------------------

def test_apply_before_run_is_rejected():
    engine = IncrementalEngine()
    with pytest.raises(GraphDeltaError, match="call run\\(\\) first"):
        engine.apply(GraphDelta(cycle(6), [("add", 0, 3)]))


def test_apply_rejects_empty_and_mistyped_batches():
    engine = IncrementalEngine()
    engine.run(_view_request(cycle(8)))
    with pytest.raises(GraphDeltaError, match="at least one delta"):
        engine.apply([])
    with pytest.raises(GraphDeltaError, match="takes GraphDelta instances"):
        engine.apply(["not-a-delta"])


def test_apply_rejects_stale_deltas():
    graph = cycle(8)
    engine = IncrementalEngine()
    engine.run(_view_request(graph))
    first = GraphDelta(graph, [("add", 0, 4)])
    engine.apply(first)
    # The engine's graph is now the mutated one; a delta still built
    # against the original base is a stale handle.
    stale = GraphDelta(graph, [("add", 1, 5)])
    with pytest.raises(GraphDeltaError, match="stale delta handle"):
        engine.apply(stale)
    # Built against current_graph it applies fine.
    engine.apply(GraphDelta(engine.current_graph, [("add", 1, 5)]))


# ----------------------------------------------------------------------
# View mode: changed nodes, memo survival, round trips
# ----------------------------------------------------------------------

def test_changed_nodes_are_sound_and_local():
    graph = cycle(24)
    engine = IncrementalEngine()
    engine.run(_view_request(graph, radius=2))
    delta = GraphDelta(graph, [("add", 0, 12)])
    report = engine.apply(delta)
    fresh = simulate(
        _view_request(delta.apply(), radius=2), engine="direct"
    )
    assert report.identity() == fresh.identity()
    changed = report.changed_nodes
    assert changed is not None
    # Changed nodes are confined to the delta's radius-2 footprint...
    assert set(changed) <= set(delta.footprint(2))
    # ...include both endpoints (degree is part of even a radius-0
    # view)...
    assert {0, 12} <= set(changed)
    # ...and exclude everything far from the chord.
    assert 6 not in changed
    # The fresh run never reports changed nodes — diagnostics only.
    assert fresh.changed_nodes is None
    assert report.identity() == fresh.identity()


def test_add_then_remove_in_one_delta_changes_nothing():
    graph = cycle(16)
    engine = IncrementalEngine()
    primed = engine.run(_view_request(graph, radius=1))
    delta = GraphDelta(graph, [("add", 2, 9), ("remove", 2, 9)])
    report = engine.apply(delta)
    assert report.changed_nodes == []
    assert report.outputs == primed.outputs


def test_inverse_delta_restores_outputs_and_serves_from_memo():
    graph = cycle(16)
    engine = IncrementalEngine()
    primed = engine.run(_view_request(graph, radius=1))
    spy = _DeltaSpy()
    forward = GraphDelta(graph, [("add", 0, 8)])
    engine.apply(forward, tracer=spy)
    backward = GraphDelta(engine.current_graph, [("remove", 0, 8)])
    restored = engine.apply(backward, tracer=spy)
    assert restored.outputs == primed.outputs
    assert engine.current_node_keys() is not None
    # The second apply re-partitions the same footprint but every class
    # was already memoized by the primed run — all survivors, none new.
    _, info = spy.events[1]
    assert info["classes_invalidated"] == 0
    assert info["cache_survivors"] > 0


class _CountingViewRule(ViewAlgorithm):
    """``ball-signature`` that counts its ``output`` calls."""

    def __init__(self, radius):
        self.inner = make_view_rule("ball-signature", radius=radius)
        self.radius, self.name = radius, "counting-ball-signature"
        self.calls = 0

    def output(self, view):
        self.calls += 1
        return self.inner.output(view)


class _CountingEdgeRule(EdgeViewAlgorithm):
    """``edge-parity`` that counts its ``output_fn`` calls."""

    def __init__(self, rounds):
        super().__init__(rounds, self._count, name="counting-edge-parity")
        self.calls = 0

    def _count(self, view):
        self.calls += 1
        return edge_parity_output(view)


def _counting_request(kind, graph):
    if kind == "view":
        return SimRequest(kind="view", graph=graph, algorithm=_CountingViewRule(2))
    return SimRequest(kind="edge", graph=graph, algorithm=_CountingEdgeRule(3))


@pytest.mark.parametrize("kind", ["view", "edge"])
def test_algorithm_calls_match_classes_evaluated(kind):
    graph = path(30)
    engine = IncrementalEngine()
    request = _counting_request(kind, graph)
    algorithm = request.algorithm
    primed = engine.run(request)
    # Priming evaluates one representative per class, nothing more.
    assert algorithm.calls == primed.info["distinct_classes"] > 1
    algorithm.calls = 0
    spy = _DeltaSpy()
    # The removal cuts off a path end whose balls are already memoized.
    engine.apply(GraphDelta(graph, [("add", 0, 6), ("remove", 20, 21)]), tracer=spy)
    _, info = spy.events[0]
    # An apply evaluates only its memo misses: survivors cost no call.
    assert info["cache_survivors"] > 0
    assert algorithm.calls == info["classes_invalidated"] > 0


@pytest.mark.parametrize("kind", ["view", "edge"])
def test_inverse_delta_makes_no_algorithm_call(kind):
    graph = cycle(16)
    engine = IncrementalEngine()
    request = _counting_request(kind, graph)
    engine.run(request)
    engine.apply(GraphDelta(graph, [("add", 0, 8)]))
    request.algorithm.calls = 0
    spy = _DeltaSpy()
    engine.apply(
        GraphDelta(engine.current_graph, [("remove", 0, 8)]), tracer=spy
    )
    _, info = spy.events[0]
    assert info["cache_survivors"] > 0
    assert info["classes_invalidated"] == request.algorithm.calls == 0


def test_apply_accepts_a_sequence_and_composes():
    graph = cycle(16)
    d1 = GraphDelta(graph, [("add", 0, 8)])
    d2 = GraphDelta(d1.apply(), [("remove", 3, 4)])

    chained = IncrementalEngine()
    chained.run(_view_request(graph, radius=1))
    batch_report = chained.apply([d1, d2])

    stepped = IncrementalEngine()
    stepped.run(_view_request(graph, radius=1))
    stepped.apply(d1)
    step_report = stepped.apply(d2)

    assert batch_report.identity() == step_report.identity()
    assert batch_report.changed_nodes == step_report.changed_nodes


def test_view_mode_with_ids_and_randomness_labels():
    graph = path(10)
    rng = random.Random(3)
    ids = random_permutation_ids(graph, rng)
    request = SimRequest(
        kind="view",
        graph=graph,
        algorithm=make_view_rule("local-max", radius=1),
        ids=ids,
    )
    engine = IncrementalEngine()
    engine.run(request)
    delta = GraphDelta(
        graph, [("set_id", 0, ids[9]), ("set_id", 9, ids[0])]
    )
    report = engine.apply(delta)
    new_ids, _, _ = delta.apply_to_labels(ids, None, None)
    fresh = simulate(
        SimRequest(
            kind="view",
            graph=delta.apply(),
            algorithm=make_view_rule("local-max", radius=1),
            ids=new_ids,
        ),
        engine="direct",
    )
    assert report.identity() == fresh.identity()


# ----------------------------------------------------------------------
# Edge mode
# ----------------------------------------------------------------------

def test_edge_mode_drops_removed_edges_from_outputs():
    from repro.local_model import EdgeViewAlgorithm

    graph = cycle(12)

    def output(view):
        return view.node_count

    alg = EdgeViewAlgorithm(1, output, name="edge-size")
    request = SimRequest(kind="edge", graph=graph, algorithm=alg)
    engine = IncrementalEngine()
    primed = engine.run(request)
    assert (0, 1) in primed.outputs
    delta = GraphDelta(graph, [("remove", 0, 1), ("add", 0, 6)])
    report = engine.apply(delta)
    assert (0, 1) not in report.outputs
    assert (0, 6) in report.outputs
    fresh = simulate(
        SimRequest(kind="edge", graph=delta.apply(), algorithm=alg),
        engine="direct",
    )
    assert report.identity() == fresh.identity()
    assert set(report.changed_nodes) <= set(delta.footprint(1))


# ----------------------------------------------------------------------
# Recompute mode (local kind, unfrozen, empty)
# ----------------------------------------------------------------------

def test_local_kind_recomputes_and_matches_direct():
    graph = cycle(16)
    rng = random.Random(5)
    ids = random_permutation_ids(graph, rng)
    request = SimRequest(
        kind="local", graph=graph, algorithm=LubyMIS(), ids=ids, seed=7
    )
    engine = IncrementalEngine()
    primed = engine.run(request)
    assert primed.identity() == simulate(request, engine="direct").identity()
    delta = GraphDelta(graph, [("add", 0, 8)])
    report = engine.apply(delta)
    fresh = simulate(
        SimRequest(
            kind="local", graph=delta.apply(), algorithm=LubyMIS(),
            ids=ids, seed=7,
        ),
        engine="direct",
    )
    assert report.backend == "incremental"
    assert report.identity() == fresh.identity()
    assert report.changed_nodes is not None


def test_local_kind_with_explicit_rng_cannot_apply():
    graph = cycle(8)
    request = SimRequest(
        kind="local", graph=graph, algorithm=LubyMIS(),
        ids=list(range(1, 9)), rng=random.Random(0),
    )
    engine = IncrementalEngine()
    engine.run(request)
    with pytest.raises(GraphDeltaError, match="seed-based randomness"):
        engine.apply(GraphDelta(graph, [("add", 0, 4)]))


def test_unfrozen_graph_falls_back_to_recompute():
    graph = Graph(8, [(i, (i + 1) % 8) for i in range(8)])  # not frozen
    engine = IncrementalEngine()
    report = engine.run(_view_request(graph, radius=1))
    assert report.backend == "incremental"
    assert engine.current_node_keys() is None  # recompute mode


def test_empty_graph_falls_back_to_recompute():
    graph = Graph(0).freeze()
    engine = IncrementalEngine()
    report = engine.run(_view_request(graph, radius=1))
    assert report.outputs == []
    assert engine.current_node_keys() is None


# ----------------------------------------------------------------------
# Tracing and metrics
# ----------------------------------------------------------------------

def test_on_delta_payload_and_metrics_counters():
    graph = cycle(24)
    engine = IncrementalEngine()
    engine.run(_view_request(graph, radius=2))
    spy = _DeltaSpy()
    metrics = MetricsTracer()
    delta = GraphDelta(graph, [("add", 0, 12)])
    report = engine.apply(delta, tracer=spy)
    assert len(spy.events) == 1
    name, info = spy.events[0]
    assert name == "incremental"
    assert info["ops"] == 1
    assert info["footprint"] == len(delta.footprint(2))
    assert info["changed_nodes"] == len(report.changed_nodes)
    assert info["csr_mode"] in ("patch", "recompile", "lazy")
    # Every dirty class was either served from the memo or evaluated.
    assert info["classes_invalidated"] + info["cache_survivors"] > 0
    assert info["classes_invalidated"] >= 0 and info["cache_survivors"] >= 0

    # Same apply through a MetricsTracer folds the delta_* counters.
    engine2 = IncrementalEngine()
    engine2.run(_view_request(graph, radius=2))
    engine2.apply(GraphDelta(graph, [("add", 0, 12)]), tracer=metrics)
    m = metrics.metrics
    assert m.delta_applies == 1
    assert m.delta_footprint == info["footprint"]
    assert m.delta_changed_nodes == info["changed_nodes"]
    assert m.delta_classes_invalidated == info["classes_invalidated"]
    assert m.delta_cache_survivors == info["cache_survivors"]
    payload = m.to_dict()
    for key in (
        "delta_applies", "delta_footprint", "delta_classes_invalidated",
        "delta_cache_survivors", "delta_changed_nodes",
    ):
        assert key in payload


def test_tracing_an_apply_is_passive():
    graph = cycle(20)
    untraced = IncrementalEngine()
    untraced.run(_view_request(graph, radius=1))
    traced = IncrementalEngine()
    traced.run(_view_request(graph, radius=1), tracer=MetricsTracer())
    d_u = GraphDelta(graph, [("add", 0, 10)])
    d_t = GraphDelta(graph, [("add", 0, 10)])
    r_u = untraced.apply(d_u)
    r_t = traced.apply(d_t, tracer=MetricsTracer())
    assert r_t.identity() == r_u.identity()
    assert r_t.changed_nodes == r_u.changed_nodes


# ----------------------------------------------------------------------
# The stale-cache fixture is caught by the differential harness
# ----------------------------------------------------------------------

def test_stale_cache_fixture_is_caught_by_the_harness():
    from repro.conformance.fixtures import stale_cache_incremental_engine

    caught = 0
    for graph_name in ("cycle24", "tree3d3", "star8"):
        case = Case("ball-signature", graph_name, 1, "anonymous")
        try:
            assert_delta_case_identical(
                case, engine_factory=stale_cache_incremental_engine
            )
        except AssertionError:
            caught += 1
    assert caught == 3, (
        "the stale-cache fixture must diverge from fresh recomputes on "
        "every probe graph"
    )


def test_honest_engine_passes_where_the_fixture_fails():
    for graph_name in ("cycle24", "tree3d3", "star8"):
        assert_delta_case_identical(
            Case("ball-signature", graph_name, 1, "anonymous")
        )
