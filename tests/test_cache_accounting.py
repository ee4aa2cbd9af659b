"""Golden pins for the cached backend's memo-table accounting.

The cached backend looks its memo table up once per *class* of the run's
partition, then credits the remaining members of every class as hits.
That must reproduce the per-entity accounting exactly: lookups equal the
entity count, misses equal the classes not yet in the table, hits are
the rest, and ``bytes`` / ``distinct_classes`` come from the same stores
made in the same first-occurrence order.  The ``view`` centres — the
balls materialized on a miss — must appear in that order too.

The values below were recorded from the per-entity memo loop the
per-class lookup replaced, for a cold run and a warm rerun on the same
engine, over both layouts, both view kinds, and three differential-grid
cases (one with ids, two anonymous).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import CachedEngine, SimRequest
from repro.instrumentation.recorder import TraceRecorder
from repro.local_model import EdgeViewAlgorithm

from .differential import Case, build_request

CASES = (
    Case("local-max", "tree3d3", 2, "ids"),
    Case("ball-signature", "cycle24", 2, "anonymous"),
    Case("degree-profile", "caterpillar6x2", 1, "anonymous"),
)


def _edge_shape(view):
    """Edge output reading structure and whichever labels are present."""
    labels = view.identifiers or view.randomness or ()
    return (view.node_count, len(view.edges), min(labels, default=None))


def _request(case: Case, kind: str, layout: str) -> SimRequest:
    request = replace(build_request(case), layout=layout)
    if kind == "edge":
        rounds = max(1, case.radius)
        request = replace(
            request,
            kind="edge",
            algorithm=EdgeViewAlgorithm(rounds, _edge_shape, name="edge-shape"),
        )
    return request


#: The pinned ``cache`` event fields, in the order the goldens list them.
STATS = ("lookups", "hits", "misses", "bytes", "distinct_classes")


def _observe(engine: CachedEngine, request: SimRequest):
    """(cache stats, info["distinct_classes"], view centres)."""
    recorder = TraceRecorder()
    report = engine.run(request, tracer=recorder)
    (cache,) = [e.data for e in recorder.events if e.kind == "cache"]
    assert cache["hit_rate"] == cache["hits"] / cache["lookups"]
    centres = [e.data["center"] for e in recorder.events if e.kind == "view"]
    return (
        tuple(cache[field] for field in STATS),
        report.info["distinct_classes"],
        centres,
    )


def observe_cold_and_warm(case: Case, kind: str, layout: str):
    engine = CachedEngine()
    request = _request(case, kind, layout)
    return [_observe(engine, request), _observe(engine, request)]


#: (case, kind, layout) -> (cold, warm) observations, each
#: ``(STATS tuple, info["distinct_classes"], view centres)``.
GOLDEN = {
    ('local-max-r2-tree3d3-ids', 'view', 'dict'): (
        ((22, 0, 22, 398, 22), 22,
         [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
         20, 21]),
        ((22, 22, 0, 0, 0), 22, []),
    ),
    ('local-max-r2-tree3d3-ids', 'view', 'csr'): (
        ((22, 0, 22, 2294, 22), 22,
         [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
         20, 21]),
        ((22, 22, 0, 0, 0), 22, []),
    ),
    ('local-max-r2-tree3d3-ids', 'edge', 'dict'): (
        ((21, 0, 21, 378, 21), 21,
         [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3,
         9), (4, 10), (4, 11), (5, 12), (5, 13), (6, 14), (6, 15), (7, 16), (7,
         17), (8, 18), (8, 19), (9, 20), (9, 21)]),
        ((21, 21, 0, 0, 0), 21, []),
    ),
    ('local-max-r2-tree3d3-ids', 'edge', 'csr'): (
        ((21, 0, 21, 1962, 21), 21,
         [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3,
         9), (4, 10), (4, 11), (5, 12), (5, 13), (6, 14), (6, 15), (7, 16), (7,
         17), (8, 18), (8, 19), (9, 20), (9, 21)]),
        ((21, 21, 0, 0, 0), 21, []),
    ),
    ('ball-signature-r2-cycle24-anonymous', 'view', 'dict'): (
        ((24, 18, 6, 78, 6), 6, [0, 1, 2, 3, 22, 23]),
        ((24, 24, 0, 0, 0), 6, []),
    ),
    ('ball-signature-r2-cycle24-anonymous', 'view', 'csr'): (
        ((24, 18, 6, 414, 6), 6, [0, 1, 2, 3, 22, 23]),
        ((24, 24, 0, 0, 0), 6, []),
    ),
    ('ball-signature-r2-cycle24-anonymous', 'edge', 'dict'): (
        ((24, 19, 5, 60, 5), 5, [(0, 1), (0, 23), (1, 2), (2, 3), (22, 23)]),
        ((24, 24, 0, 0, 0), 5, []),
    ),
    ('ball-signature-r2-cycle24-anonymous', 'edge', 'csr'): (
        ((24, 19, 5, 290, 5), 5, [(0, 1), (0, 23), (1, 2), (2, 3), (22, 23)]),
        ((24, 24, 0, 0, 0), 5, []),
    ),
    ('degree-profile-r1-caterpillar6x2-anonymous', 'view', 'dict'): (
        ((18, 9, 9, 121, 9), 9, [0, 1, 2, 4, 5, 6, 7, 8, 9]),
        ((18, 18, 0, 0, 0), 9, []),
    ),
    ('degree-profile-r1-caterpillar6x2-anonymous', 'view', 'csr'): (
        ((18, 9, 9, 523, 9), 9, [0, 1, 2, 4, 5, 6, 7, 8, 9]),
        ((18, 18, 0, 0, 0), 9, []),
    ),
    ('degree-profile-r1-caterpillar6x2-anonymous', 'edge', 'dict'): (
        ((17, 10, 7, 74, 7), 7,
         [(0, 1), (0, 6), (0, 7), (1, 2), (1, 8), (1, 9), (4, 5)]),
        ((17, 17, 0, 0, 0), 7, []),
    ),
    ('degree-profile-r1-caterpillar6x2-anonymous', 'edge', 'csr'): (
        ((17, 10, 7, 286, 7), 7,
         [(0, 1), (0, 6), (0, 7), (1, 2), (1, 8), (1, 9), (4, 5)]),
        ((17, 17, 0, 0, 0), 7, []),
    ),
}


@pytest.mark.parametrize("layout", ("dict", "csr"))
@pytest.mark.parametrize("kind", ("view", "edge"))
@pytest.mark.parametrize("case", CASES, ids=[c.case_id for c in CASES])
def test_cache_accounting_matches_per_entity_golden(case, kind, layout):
    """Cold run, then warm rerun: stats, class count, centre order."""
    cold, warm = GOLDEN[(case.case_id, kind, layout)]
    assert observe_cold_and_warm(case, kind, layout) == [cold, warm]
