"""Golden pins for the tracer event stream.

A fixed set of traced runs that together fire every tracer event:

* ``local`` runs on the reference loop and the vectorized round kernel;
* ``view`` / ``edge`` runs on the direct backend's ``dict`` / ``csr`` /
  ``kernel`` layouts and the cached backend's ``csr`` layout;
* ``finite`` runs on the reference loop and the batched kernel;
* a pooled sharded view run, a degraded (unpicklable) sharded run, and
  a traced sharded ``run_many`` (subruns);
* incremental runs, each followed by one applied delta: a ``view``
  run and an ``edge`` run on the footprint path, and a seeded ``local``
  run in recompute mode;
* a service run and a service ``run_many`` of two ``local`` requests;
* a Monte Carlo ``estimate_global_success`` and a small speedup ladder.

Each run is observed through a ``MultiTracer`` of a ``MetricsTracer``
and a ``TraceRecorder``.  Two things are pinned per run against
``tests/golden/tracer_events.json``:

1. ``MetricsTracer.report()`` without the run's and the rounds'
   ``wall_seconds``;
2. the ``TraceRecorder`` JSONL export restricted to :data:`PINNED_KINDS`
   (with ``seq`` dropped, since other kinds interleave with them).

Regenerate the golden file only for an intended change of the stream::

    PYTHONPATH=src python tests/test_tracer_golden.py --regenerate
"""

from __future__ import annotations

import json
import os
import random
import sys
from typing import Any, Callable, Dict, List

import pytest

from repro.algorithms.view_rules import make_view_rule
from repro.core import ALGORITHMS, SimRequest, ensure_builtins
from repro.core.cached import CachedEngine
from repro.core.direct import DirectEngine
from repro.core.incremental import IncrementalEngine
from repro.core.service import ServiceEngine
from repro.core.sharded import ShardedEngine
from repro.graphs.delta import GraphDelta
from repro.graphs.generators import cycle, path, toroidal_grid
from repro.graphs.orientation import orient_torus
from repro.instrumentation import MetricsTracer, MultiTracer, TraceRecorder
from repro.local_model.algorithm import ViewAlgorithm
from repro.speedup.algorithms import local_maximum_coloring
from repro.speedup.finite_runner import estimate_global_success
from repro.speedup.pipeline import run_speedup_pipeline

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "tracer_events.json")

#: Event kinds whose recorded JSONL is pinned.
PINNED_KINDS = frozenset({
    "run_start", "round_start", "message", "halt", "round_end", "view",
    "layout", "cache", "shard", "trial", "stage", "run_end",
})

#: Every event name an engine fires.
ALL_EVENTS = frozenset(PINNED_KINDS | {
    "kernel", "service", "delta", "degraded", "subrun",
})

ensure_builtins()


class _LambdaRule(ViewAlgorithm):
    """A view rule holding a lambda: the sharded pool must degrade."""

    def __init__(self):
        self.radius = 1
        self.name = "lambda-rule"
        self._fn = lambda view: view.node_count  # noqa: E731

    def output(self, view):
        return self._fn(view)


def _ids(n: int, seed: int) -> List[int]:
    ids = list(range(1, n + 1))
    random.Random(seed).shuffle(ids)
    return ids


def _local(name: str, n: int = 8, layout: str = "auto") -> SimRequest:
    return SimRequest(
        kind="local", graph=cycle(n), algorithm=ALGORITHMS.create(name),
        ids=_ids(n, 3), seed=7, label=f"golden-{name}", layout=layout,
    )


def _view(layout: str = "auto", n: int = 8) -> SimRequest:
    return SimRequest(
        kind="view", graph=cycle(n), algorithm=make_view_rule("local-max", radius=1),
        ids=_ids(n, 5), label="golden-view", layout=layout,
    )


def _edge(layout: str = "auto", n: int = 8) -> SimRequest:
    return SimRequest(
        kind="edge", graph=path(n), algorithm=ALGORITHMS.create("edge-parity", rounds=1),
        label="golden-edge", layout=layout,
    )


def _finite(layout: str = "auto") -> SimRequest:
    graph = toroidal_grid(3, 4)
    rng = random.Random(11)
    alg = local_maximum_coloring(2, bits=1)
    return SimRequest(
        kind="finite", graph=graph, algorithm=alg,
        orientation=orient_torus(graph, 3, 4),
        values=[rng.randrange(alg.values) for _ in range(graph.n)],
        layout=layout,
    )


def _sharded(tracer) -> None:
    engine = ShardedEngine(shards=2)
    try:
        engine.run(SimRequest(
            kind="view", graph=toroidal_grid(4, 5),
            algorithm=make_view_rule("degree-profile", radius=1),
            label="golden-sharded",
        ), tracer=tracer)
    finally:
        engine.close()


def _degraded(tracer) -> None:
    engine = ShardedEngine(shards=2)
    try:
        engine.run(SimRequest(
            kind="view", graph=toroidal_grid(4, 5), algorithm=_LambdaRule(),
            label="golden-degraded",
        ), tracer=tracer)
    finally:
        engine.close()


def _sharded_many(tracer) -> None:
    engine = ShardedEngine(shards=2)
    try:
        engine.run_many([_view(n=8), _view(n=9), _edge(n=7)], tracer=tracer)
    finally:
        engine.close()


def _incremental(tracer) -> None:
    engine = IncrementalEngine()
    request = _view(n=10)
    engine.run(request, tracer=tracer)
    engine.apply(GraphDelta(request.graph, [("add", 0, 5)]), tracer=tracer)


def _incremental_edge(tracer) -> None:
    engine = IncrementalEngine()
    graph = path(9)
    request = SimRequest(
        kind="edge", graph=graph, algorithm=ALGORITHMS.create("edge-profile"),
        randomness=[random.Random(13).randrange(100) for _ in range(graph.n)],
        label="golden-incremental-edge",
    )
    engine.run(request, tracer=tracer)
    engine.apply(
        GraphDelta(graph, [("add", 0, 4), ("remove", 6, 7)]), tracer=tracer
    )


def _incremental_recompute(tracer) -> None:
    engine = IncrementalEngine()
    request = _local("flood-leader-parity")
    engine.run(request, tracer=tracer)
    engine.apply(GraphDelta(request.graph, [("add", 0, 4)]), tracer=tracer)


def _service(tracer) -> None:
    engine = ServiceEngine()
    try:
        engine.run(_view(layout="csr"), tracer=tracer)
    finally:
        engine.close()


def _service_many(tracer) -> None:
    engine = ServiceEngine()
    try:
        engine.run_many(
            [_local("luby-mis"), _local("flood-leader-parity", n=6)], tracer=tracer
        )
    finally:
        engine.close()


def _global_success(tracer) -> None:
    graph = toroidal_grid(4, 4)
    estimate_global_success(
        local_maximum_coloring(2, bits=1), graph, orient_torus(graph, 4, 4),
        trials=6, rng=random.Random(0), tracer=tracer,
    )


def _pipeline(tracer) -> None:
    run_speedup_pipeline(
        local_maximum_coloring(2, bits=1), method="exact", tracer=tracer
    )


def _direct(request_factory: Callable[[], SimRequest]):
    return lambda tracer: DirectEngine().run(request_factory(), tracer=tracer)


def _cached(request_factory: Callable[[], SimRequest]):
    return lambda tracer: CachedEngine().run(request_factory(), tracer=tracer)


#: name -> callable(tracer) performing the traced run(s).
SCENARIOS: Dict[str, Callable[[Any], None]] = {
    "local-reference": _direct(lambda: _local("flood-leader-parity")),
    "local-kernel": _direct(lambda: _local("luby-mis", layout="kernel")),
    "view-dict": _direct(lambda: _view("dict")),
    "view-csr": _direct(lambda: _view("csr")),
    "view-kernel": _direct(lambda: _view("kernel")),
    "edge-dict": _direct(lambda: _edge("dict")),
    "edge-csr": _direct(lambda: _edge("csr")),
    "edge-kernel": _direct(lambda: _edge("kernel")),
    "view-cached-csr": _cached(lambda: _view("csr")),
    "edge-cached-csr": _cached(lambda: _edge("csr")),
    "finite-reference": _direct(lambda: _finite()),
    "finite-kernel": _direct(lambda: _finite("kernel")),
    "sharded": _sharded,
    "degraded": _degraded,
    "sharded-run-many": _sharded_many,
    "incremental": _incremental,
    "incremental-edge": _incremental_edge,
    "incremental-recompute": _incremental_recompute,
    "service": _service,
    "service-run-many": _service_many,
    "global-success": _global_success,
    "pipeline": _pipeline,
}


def _strip_wall(report: Dict[str, Any]) -> Dict[str, Any]:
    report = dict(report)
    report.pop("wall_seconds")
    report["per_round"] = [
        {k: v for k, v in r.items() if k != "wall_seconds"}
        for r in report["per_round"]
    ]
    return report


def trace(name: str):
    """Run one scenario; return its (MetricsTracer, TraceRecorder)."""
    metrics, recorder = MetricsTracer(), TraceRecorder()
    SCENARIOS[name](MultiTracer(metrics, recorder))
    return metrics, recorder


def pins(metrics: MetricsTracer, recorder: TraceRecorder) -> Dict[str, Any]:
    """The pinned, wall-clock-free form of one traced scenario."""
    events = [
        {k: v for k, v in e.items() if k != "seq"}
        for e in TraceRecorder.load_events(recorder.to_jsonl())
        if e["kind"] in PINNED_KINDS
    ]
    return {"metrics": _strip_wall(metrics.report()), "events": events}


@pytest.fixture(scope="module")
def traced():
    return {name: trace(name) for name in SCENARIOS}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_metrics_report_matches_golden(traced, golden, name):
    got, want = pins(*traced[name])["metrics"], golden[name]["metrics"]
    assert got == want
    assert list(got) == list(want)  # the schema's key order


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recorded_events_match_golden(traced, golden, name):
    got, want = pins(*traced[name])["events"], golden[name]["events"]
    # Compare serialized lines, so each event's key order is pinned too.
    assert [json.dumps(e) for e in got] == [json.dumps(e) for e in want]


def test_golden_set_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


def test_recorder_captures_all_seventeen_events(traced):
    seen = {e.kind for _, recorder in traced.values() for e in recorder.events}
    assert seen == ALL_EVENTS


def test_subrun_event_survives_jsonl_round_trip(traced):
    metrics, recorder = traced["sharded-run-many"]
    subruns = recorder.of_kind("subrun")
    assert len(subruns) == metrics.metrics.subruns == 3
    exported = [
        e for e in TraceRecorder.load_events(recorder.to_jsonl())
        if e["kind"] == "subrun"
    ]
    assert [e["metrics"] for e in exported] == [e.data["metrics"] for e in subruns]
    assert sum(e["metrics"]["views_gathered"] for e in exported) == (
        metrics.metrics.views_gathered
    )


def test_service_event_keeps_its_name_in_the_export(traced):
    _, recorder = traced["service"]
    (event,) = recorder.of_kind("service")
    assert event.data["kind"] == "view"
    (exported,) = [
        e for e in TraceRecorder.load_events(recorder.to_jsonl())
        if e["kind"] == "service"
    ]
    assert exported["service_kind"] == "view"
    assert exported["requests"] == 1


def _regenerate() -> None:
    data = {name: pins(*trace(name)) for name in SCENARIOS}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    _regenerate()
