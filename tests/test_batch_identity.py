"""A batch must take the same path as the same requests sent one by one.

``run_many(requests)`` must equal ``[run(r) for r in requests]`` — on
:meth:`~repro.core.engine.SimReport.identity` *and* on the kernel path
each report names (``info.get("kernel")``).  The batch is the seven
:func:`~repro.serve.loadgen.mixed_specs` templates at n=48: three view,
two edge and two local specs.

Two compositions still break the rule, pinned as strict xfails so the
fix flips them: :meth:`ServiceEngine.run_many` with two ``local`` specs
and :meth:`ShardedEngine.run_many` both run their batch inside the
process pool through the ``direct`` inner engine, i.e. the reference
loop, where a single ``run`` escalates to the registered round kernel.
"""

from __future__ import annotations

import pytest

from repro.core import CachedEngine, DirectEngine, ServiceEngine, ShardedEngine
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
        for engine in (batch_engine, single_engine):
            close = getattr(engine, "close", None)
            if close is not None:
                close()
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
        (lambda: ServiceEngine(shards=2), ONE_LOCAL),
    ],
    ids=["direct", "cached", "service-one-local"],
)
def test_run_many_takes_the_single_request_path(make_engine, specs):
    batch, singles = _batch_and_singles(make_engine, specs)
    assert batch == singles


@pytest.mark.xfail(
    strict=True,
    reason="the pooled batch runs local specs through the reference loop, "
    "a single run takes the round kernel",
)
def test_service_run_many_with_two_local_specs():
    batch, singles = _batch_and_singles(lambda: ServiceEngine(shards=2), SPECS)
    assert batch == singles


@pytest.mark.xfail(
    strict=True,
    reason="run_many's inner direct engine runs the reference loop, "
    "a single sharded run takes the round kernel",
)
def test_sharded_run_many():
    batch, singles = _batch_and_singles(lambda: ShardedEngine(shards=2), SPECS)
    assert batch == singles
