"""A batch must take the same path as the same requests sent one by one.

``run_many(requests)`` must equal ``[run(r) for r in requests]`` — on
:meth:`~repro.core.engine.SimReport.identity` *and* on the kernel path
each report names (``info.get("kernel")``).  The batch is the seven
:func:`~repro.serve.loadgen.mixed_specs` templates at n=48: three view,
two edge and two local specs.

Every backend keeps it: the service engine inherits the serial
:meth:`~repro.core.engine.Engine.run_many`, and the sharded engine runs
each request of a pooled chunk on a fresh cached engine, which escalates
``local`` specs to the registered round kernel exactly as a single
``run`` does.  A chunk never shares one memo table between requests: two
algorithms that meet the same view class must not answer each other.
"""

from __future__ import annotations

import pytest

from repro.algorithms.view_rules import make_view_rule
from repro.core import (
    CachedEngine, DirectEngine, ServiceEngine, ShardedEngine, SimRequest, simulate,
)
from repro.graphs.generators import cycle
from repro.serve.loadgen import mixed_specs
from repro.serve.protocol import build_request

SPECS = mixed_specs(7, seed=0, n=48)

#: The batch with one ``local`` spec: the service runs it in-process.
ONE_LOCAL = [
    spec for spec in SPECS if spec["algorithm"]["name"] != "flood-leader-parity"
]


def _paths(reports):
    return [(r.identity(), r.info.get("kernel")) for r in reports]


def _batch_and_singles(make_engine, specs):
    """(run_many paths, one-by-one paths), each on a fresh engine."""
    batch_engine, single_engine = make_engine(), make_engine()
    try:
        batch = batch_engine.run_many([build_request(s) for s in specs])
        singles = [single_engine.run(build_request(s)) for s in specs]
    finally:
        batch_engine.close()
        single_engine.close()
    return _paths(batch), _paths(singles)


def test_batch_has_two_local_specs():
    kinds = [spec["kind"] for spec in SPECS]
    assert kinds.count("local") == 2
    assert [s["kind"] for s in ONE_LOCAL].count("local") == 1


@pytest.mark.parametrize(
    "make_engine,specs",
    [
        (DirectEngine, SPECS),
        (CachedEngine, SPECS),
        (ServiceEngine, ONE_LOCAL),
    ],
    ids=["direct", "cached", "service-one-local"],
)
def test_run_many_takes_the_single_request_path(make_engine, specs):
    batch, singles = _batch_and_singles(make_engine, specs)
    assert batch == singles


def test_service_run_many_with_two_local_specs():
    batch, singles = _batch_and_singles(ServiceEngine, SPECS)
    assert batch == singles


def test_sharded_run_many():
    batch, singles = _batch_and_singles(lambda: ShardedEngine(shards=2), SPECS)
    assert batch == singles


def test_sharded_chunk_does_not_share_a_memo_across_algorithms():
    # One chunk, two rules of the same radius on the same labeled graph:
    # their class keys coincide, so a memo shared by the chunk would
    # answer the second rule with the first rule's outputs.
    graph, ids = cycle(12), list(range(12))
    requests = [
        SimRequest(kind="view", graph=graph, algorithm=make_view_rule(name, radius=1),
                   ids=ids, label=name)
        for name in ("local-max", "ball-signature")
    ]
    engine = ShardedEngine(shards=1)
    try:
        batch = engine.run_many(requests)
    finally:
        engine.close()
    assert [r.identity() for r in batch] == [
        simulate(r, engine="direct").identity() for r in requests
    ]
