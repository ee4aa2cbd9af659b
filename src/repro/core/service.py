"""The service backend: a cross-request cache for a long-lived engine.

Every other backend is cold by construction: the memo table of a
:class:`~repro.core.cached.CachedEngine` dies with the engine, and
:func:`~repro.core.engine.resolve_engine` hands out a *fresh* cached
engine per call precisely because a :class:`~repro.local_model.cache.
ViewCache` must never be shared across algorithms.  A long-lived
daemon (``python -m repro.serve``) inverts the economics: the same
graph families and algorithms arrive over and over, so the class
tables, compiled CSR layouts, and ball partitions should *outlive*
individual requests.

:class:`ServiceEngine` is that warm backend.  It keeps three bounded
cross-request layers:

* **Class tables** — one :class:`~repro.local_model.cache.ViewCache`
  per *algorithm key* (a stable structural fingerprint of the
  algorithm instance, see :func:`algorithm_cache_key`), so repeat
  requests for the same rule reuse each canonical view class computed
  by any earlier request.  Tables are LRU-evicted whole while the
  estimated footprint exceeds ``max_bytes`` (default
  :data:`DEFAULT_MAX_BYTES`; byte accounting rides the existing
  :class:`~repro.local_model.cache.CacheStats` estimates and surfaces
  through the ``cache_*`` / ``service_*`` RunMetrics).
* **Partitions** — per warm graph, the batched CSR ball partition for
  each of the last :data:`MAX_PARTITIONS` ``(kind, radius, labeling)``
  it has served, installed as a memoizing expander on the graph's
  compiled layout so every engine that touches the graph reuses it.
* **Graphs** — registry-built family graphs (:meth:`warm_graph`),
  frozen and CSR-compiled once, LRU-bounded by ``max_graphs``.

The exactness contract is unchanged: a warm response is bit-identical
on :meth:`~repro.core.engine.SimReport.identity` to a cold direct run
— outputs, error messages, and RNG streams.  The algorithm key never
*guesses*: an algorithm whose identity cannot be fingerprinted
(a lambda ``output_fn``, an unrecognized attribute object) is served
from a fresh private table instead of a shared one, trading warmth for
certainty.  The conformance ``service-identity`` axis and
``tests/test_service_parity.py`` prove the contract; the ``service``
tracer event and ``service_*`` counters make the cache visible.

``local`` and ``finite`` requests have no view classes to share and
run with cached-engine path selection (round kernels included).  A
batch is served by the inherited :meth:`~repro.core.engine.Engine.
run_many`, one :meth:`ServiceEngine.run` per request, so a request
takes the same path whether it arrives alone or in a batch.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..instrumentation.tracer import Tracer, effective_tracer
from ..local_model.cache import ViewCache
from .cached import CachedEngine
from .engine import Engine, SimReport, SimRequest
from .registry import build_graph

__all__ = ["DEFAULT_MAX_BYTES", "MAX_PARTITIONS", "ServiceEngine", "algorithm_cache_key"]

#: Default budget, in *estimated* bytes, for all live class tables
#: together; ``python -m repro.serve --max-bytes`` defaults to it too.
#: The estimate runs well below resident memory: over 840 n=500 specs
#: the tables' estimate read 13.4 MB while they added about 42 MB of
#: resident memory (docs/SERVICE.md, "Bounded warm layers").
DEFAULT_MAX_BYTES = 2 * 1024 * 1024

#: Memoized ball partitions kept per warm graph (LRU).  A graph in the
#: daemon's traffic mix serves a few templates per round and only the
#: unlabeled ones repeat, so a small bound keeps every entry that is
#: reused and drops the per-request labelings that never are.
MAX_PARTITIONS = 4

#: Attribute value types accepted verbatim into an algorithm key.
_KEYABLE_SCALARS = (type(None), bool, int, float, str, bytes)


def _callable_key(value: Any) -> Optional[Tuple[str, str, str]]:
    """A stable import-path key for ``value``, or ``None`` if unkeyable.

    Module-level functions and classes key as ``(module, qualname)``;
    anything anonymous or local (``<lambda>``, ``<locals>`` in the
    qualname, missing module) has no stable cross-request identity.
    """
    module = getattr(value, "__module__", None)
    qualname = getattr(value, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        return None
    return ("callable", module, qualname)


def _value_key(value: Any) -> Optional[Any]:
    if isinstance(value, _KEYABLE_SCALARS):
        return value
    if isinstance(value, (tuple, list)):
        parts = tuple(_value_key(item) for item in value)
        return None if any(part is None for part in parts) else ("seq",) + parts
    if callable(value):
        return _callable_key(value)
    return None


def algorithm_cache_key(algorithm: Any) -> Optional[Tuple[Any, ...]]:
    """A stable cross-request fingerprint of an algorithm instance.

    The key is ``(module, qualname)`` of the algorithm's type plus its
    sorted instance attributes, where each attribute is a primitive
    scalar, a sequence of keyables, or an importable module-level
    callable keyed by its own ``(module, qualname)``.  Two instances
    with equal keys are behaviourally interchangeable, so their view
    classes may share one table.

    Returns ``None`` when any attribute has no stable identity (a
    lambda ``output_fn``, an arbitrary object): the service then serves
    the request from a fresh private table — always correct, never
    warm.  :class:`ServiceEngine` reports such requests as
    ``unkeyable`` through the ``service`` tracer event.
    """
    cls = type(algorithm)
    key: List[Any] = [cls.__module__, cls.__qualname__]
    attrs = getattr(algorithm, "__dict__", None)
    if attrs is None:
        return None
    for name in sorted(attrs):
        part = _value_key(attrs[name])
        if part is None:
            return None
        key.append((name, part))
    return tuple(key)


def _labeling_key(values: Optional[Sequence[Any]]) -> Optional[Any]:
    """A hashable form of one labeling sequence (``None`` passes through)."""
    return None if values is None else tuple(values)


class _MemoExpander:
    """A partition-memoizing proxy over a ball expander.

    Installed by :class:`ServiceEngine` as ``graph.csr()._expander`` so
    *every* engine that batches over the warm graph — the service's own
    cached runs included — reuses the ``(kind, radius, labeling)``
    partitions already computed for earlier requests.  Safe because
    warm graphs are frozen (immutable) and partitions are deterministic
    functions of the graph content plus the labeling; a labeling that
    cannot be hashed simply bypasses the memo.  LRU-bounded by
    :data:`MAX_PARTITIONS`.
    """

    def __init__(self, inner: Any):
        self._inner = inner
        self._memo: "OrderedDict[Any, Any]" = OrderedDict()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def _lookup(self, key_parts: Tuple[Any, ...], orientation: Any, compute):
        if orientation is not None:
            # Orientations key by object identity only (no stable value
            # hash); the key tuple holds a strong reference so identity
            # stays unambiguous for the entry's lifetime.
            key_parts = key_parts + (id(orientation), orientation)
        try:
            hash(key_parts)
        except TypeError:
            return compute()
        memo = self._memo
        if key_parts in memo:
            memo.move_to_end(key_parts)
            return memo[key_parts]
        part = compute()
        memo[key_parts] = part
        while len(memo) > MAX_PARTITIONS:
            memo.popitem(last=False)
        return part

    def node_classes(
        self,
        radius: int,
        ids: Optional[Sequence[int]] = None,
        inputs: Optional[Sequence[Any]] = None,
        randomness: Optional[Sequence[Any]] = None,
        orientation: Optional[Any] = None,
        sources: Optional[Sequence[int]] = None,
    ) -> Any:
        """Memoized :meth:`BatchBallExpander.node_classes`.

        Subset passes (``sources`` given — the incremental engine's
        dirty-only recomputation) bypass the memo: they are already
        proportional to the subset's ball volume, and full-run entries
        must never be served where subset indexing is expected.
        """
        if sources is not None:
            return self._inner.node_classes(
                radius, ids=ids, inputs=inputs, randomness=randomness,
                orientation=orientation, sources=sources,
            )
        key = (
            "node", radius, _labeling_key(ids), _labeling_key(inputs),
            _labeling_key(randomness),
        )
        return self._lookup(
            key, orientation,
            lambda: self._inner.node_classes(
                radius, ids=ids, inputs=inputs, randomness=randomness,
                orientation=orientation,
            ),
        )

    def edge_classes(
        self,
        edges: Sequence[Tuple[int, int]],
        radius: int,
        ids: Optional[Sequence[int]] = None,
        inputs: Optional[Sequence[Any]] = None,
        randomness: Optional[Sequence[Any]] = None,
        orientation: Optional[Any] = None,
    ) -> Any:
        """Memoized :meth:`BatchBallExpander.edge_classes`."""
        key = (
            "edge", tuple(edges), radius, _labeling_key(ids),
            _labeling_key(inputs), _labeling_key(randomness),
        )
        return self._lookup(
            key, orientation,
            lambda: self._inner.edge_classes(
                edges, radius, ids=ids, inputs=inputs,
                randomness=randomness, orientation=orientation,
            ),
        )


class ServiceEngine(Engine):
    """The long-lived backend: cross-request tables, warm layouts.

    Parameters
    ----------
    max_bytes:
        Budget, in *estimated* bytes, for all live class tables
        together (:class:`~repro.local_model.cache.CacheStats`
        accounting, which reads about a third of the resident memory
        the tables add).  After each request, least-recently-used
        tables are evicted whole until the estimate fits.  ``None``
        disables eviction.
    max_graphs:
        How many registry-built warm graphs :meth:`warm_graph` retains.

    Unlike the stateless backends this engine is *meant* to be held:
    ``resolve_engine("service")`` returns a fresh instance per call
    (warmth would otherwise leak across unrelated callers), and the
    daemon in :mod:`repro.serve` owns exactly one.
    """

    name = "service"

    def __init__(
        self,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
        max_graphs: int = 32,
    ):
        self.max_bytes = max_bytes
        self.max_graphs = max_graphs
        self._tables: "OrderedDict[Tuple[Any, ...], ViewCache]" = OrderedDict()
        self._graphs: "OrderedDict[Tuple[Any, ...], Any]" = OrderedDict()
        #: Cumulative counters mirrored by the ``/metrics`` endpoint.
        self.counters: Dict[str, int] = {
            "requests": 0,
            "table_hits": 0,
            "table_misses": 0,
            "graph_hits": 0,
            "graph_misses": 0,
            "evictions": 0,
            "unkeyable": 0,
        }

    # -- warm layers ----------------------------------------------------
    def warm_graph(
        self, family: str, params: Dict[str, Any], implicit: bool = False
    ) -> Any:
        """The warm registry graph for ``family(**params)``.

        Built through :func:`~repro.core.registry.build_graph` on first
        use — then frozen, CSR-compiled, and fitted with the partition
        memo — and LRU-retained so repeat requests share one object
        (and therefore one compiled layout and one partition store).
        Each call counts one ``graph_hits`` or ``graph_misses`` in
        :attr:`counters`; :meth:`run` does not count graphs again.
        """
        key = (family, tuple(sorted(params.items())), bool(implicit))
        graphs = self._graphs
        if key in graphs:
            graphs.move_to_end(key)
            self.counters["graph_hits"] += 1
            return graphs[key]
        spec = dict(params)
        spec["graph"] = family
        if implicit:
            spec["implicit"] = True
        graph = build_graph(spec)
        self._prepare_graph(graph)
        graphs[key] = graph
        self.counters["graph_misses"] += 1
        while len(graphs) > self.max_graphs:
            graphs.popitem(last=False)
        return graph

    def _prepare_graph(self, graph: Any) -> bool:
        """Freeze, compile, and memo-fit ``graph``; True if already warm."""
        if getattr(graph, "is_implicit", False):
            return True  # implicit handles are already O(classes)-warm
        if getattr(graph, "n", 0) == 0:
            return True  # no CSR layout exists for the empty graph
        if not getattr(graph, "is_frozen", False):
            graph.freeze()
            warm = False
        else:
            warm = True
        csr = graph.csr()
        if isinstance(csr._expander, _MemoExpander):
            return warm
        if csr._expander is None:
            from ..local_model.batch_views import BatchBallExpander

            csr._expander = BatchBallExpander(graph)
        csr._expander = _MemoExpander(csr._expander)
        return False

    def _table_for(self, algorithm: Any) -> Tuple[ViewCache, bool, bool]:
        """(table, was_warm, unkeyable) for one request's algorithm."""
        key = algorithm_cache_key(algorithm)
        if key is None:
            return ViewCache(), False, True
        tables = self._tables
        if key in tables:
            tables.move_to_end(key)
            return tables[key], True, False
        table = ViewCache()
        tables[key] = table
        return table, False, False

    def total_bytes(self) -> int:
        """Estimated footprint of all live class tables, in bytes."""
        return sum(table.stats.bytes for table in self._tables.values())

    def _evict(self) -> int:
        """LRU-evict whole tables until the byte budget fits."""
        if self.max_bytes is None:
            return 0
        evicted = 0
        while self._tables and self.total_bytes() > self.max_bytes:
            self._tables.popitem(last=False)
            evicted += 1
        self.counters["evictions"] += evicted
        return evicted

    # -- engine interface -----------------------------------------------
    def run(
        self, request: SimRequest, tracer: Optional[Tracer] = None
    ) -> SimReport:
        """Serve one request from the warm layers, bit-identically.

        ``view`` / ``edge`` requests run through a
        :class:`~repro.core.cached.CachedEngine` whose memo table is
        the algorithm's cross-request table; ``local`` / ``finite``
        requests have no view classes and run on a private cached
        engine.  Fires one ``service`` event per request; the graph's
        warmth goes into that event and ``info["service"]`` only, since
        :meth:`warm_graph` already counted the lookup.
        """
        tracer = effective_tracer(tracer)
        counters = self.counters
        counters["requests"] += 1
        graph_warm = self._prepare_graph(request.graph)
        table_warm = False
        unkeyable = False
        if request.kind in ("view", "edge"):
            table, table_warm, unkeyable = self._table_for(request.algorithm)
            if unkeyable:
                counters["unkeyable"] += 1
            counters["table_hits" if table_warm else "table_misses"] += 1
            report = CachedEngine(cache=table).run(request, tracer=tracer)
        else:
            # local / finite kinds have no view classes, hence no table.
            report = CachedEngine().run(request, tracer=tracer)
        evicted = self._evict()
        report.backend = self.name
        report.info["service"] = {
            "table_hit": table_warm,
            "graph_hit": graph_warm,
            "unkeyable": unkeyable,
        }
        if tracer is not None:
            tracer.on_event(
                "service", engine=self.name, event="request",
                kind=request.kind, requests=1,
                table_hits=int(table_warm),
                table_misses=int(request.kind in ("view", "edge") and not table_warm),
                graph_hits=int(graph_warm), graph_misses=int(not graph_warm),
                evictions=evicted, bytes=self.total_bytes(),
                tables=len(self._tables), unkeyable=unkeyable,
            )
        return report

    def service_info(self) -> Dict[str, Any]:
        """A JSON-ready snapshot for the daemon's ``/metrics`` endpoint."""
        info = dict(self.counters)
        info["bytes"] = self.total_bytes()
        info["tables"] = len(self._tables)
        info["graphs"] = len(self._graphs)
        return info
