"""The cached backend: one evaluation per canonical view class.

Wraps the canonical-view memoization of :mod:`repro.local_model.cache`
behind the engine seam.  ``view`` and ``edge`` requests run the one
partition -> evaluate -> broadcast routine every backend shares
(:meth:`DirectEngine._run_classes <repro.core.direct.DirectEngine.
_run_classes>`); this backend's only contribution is the evaluation
policy: each class key is looked up once in a
:class:`~repro.local_model.cache.ViewCache` that outlives the run, and
only a miss evaluates the class representative.  The accounting still
reads one lookup per entity (the other members of a class are credited
as hits), so :class:`~repro.local_model.cache.CacheStats` match the
per-entity memo this replaced — ``tests/test_cache_accounting.py`` pins
them.  ``run_view_algorithm_cached`` / ``run_edge_view_algorithm_cached``
are adapters over this class; ``layout="kernel"`` bypasses the table
(its class table is its own memo).

``local`` requests pass through to the direct loop (a synchronous
message-passing round has no view classes to collapse), and ``finite``
requests are already memoized by the algorithm's own assignment cache
(:class:`~repro.speedup.algorithms.NodeAlgorithm`), so both keep
:class:`~repro.core.direct.DirectEngine` semantics (escalating to a
registered kernel on ``layout="auto"``).

The exactness contract (cached == direct, bit for bit) rides on the
class key being perfect; see ``docs/PERFORMANCE.md`` and
``tests/test_view_cache_properties.py``.
"""
from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..instrumentation.tracer import Tracer
from ..local_model.batch_views import ClassPartition
from ..local_model.cache import KeyedCache, ViewCache
from .direct import DirectEngine
from .engine import SimRequest

__all__ = ["CachedEngine"]

_MISS = KeyedCache.MISS


class CachedEngine(DirectEngine):
    """Memoizing backend over a :class:`~repro.local_model.cache.ViewCache`.

    Parameters
    ----------
    cache:
        The memo table to use (and keep) across runs; ``None`` creates
        a private one at construction.  The algorithm identity is not
        part of the cache key — use one engine (or one cache) per
        algorithm, exactly as with :class:`ViewCache` itself.

    Notes
    -----
    On ``layout="auto"`` requests over frozen graphs, keys come from
    the batched CSR expander (one vectorized pass instead of n
    per-entity signature walks); the accounting — one lookup per
    entity, one miss per class not yet in the table — is the same on
    every layout, so hit rates and class counts match the reference
    ``"dict"`` layout exactly.  The two layouts use disjoint (both
    perfect) key spaces, so a cache shared across layouts stays correct
    but re-evaluates each class once per key space — keep one layout
    per cache when the cross-run reuse matters.
    """

    name = "cached"
    prefer_csr = True

    def __init__(self, cache: Optional[ViewCache] = None):
        self.cache = cache if cache is not None else ViewCache()

    def _evaluate_classes(
        self,
        request: SimRequest,
        part: ClassPartition,
        reps: List[Any],
        evaluate: Callable[[Any], Any],
        tracer: Optional[Tracer],
    ) -> Tuple[List[Any], Dict[str, Any]]:
        """Step 2 policy: one memo-table lookup per class.

        A miss evaluates the class representative and stores the
        output.  Every other member of a class would have hit the entry
        its first member found or stored, so they are credited as hits:
        the stats equal one lookup per entity.
        """
        cache = self.cache
        before = cache.stats.copy() if tracer is not None else None
        get, store = cache.get, cache.store
        table: List[Any] = []
        for key, rep in zip(part.keys, reps):
            out = get(key)
            if out is _MISS:
                out = store(key, evaluate(rep))
            table.append(out)
        members = len(part.labels) - len(reps)
        cache.stats.lookups += members
        cache.stats.hits += members
        if tracer is not None:
            tracer.on_event(
                "cache", engine=request.kind, **cache.stats.delta(before).to_dict()
            )
        return table, {"distinct_classes": len(cache)}
