"""The tracer protocol: how execution engines report what they do.

A *tracer* is a passive observer handed to an engine entry point
(:func:`~repro.local_model.network.run_local`,
:func:`~repro.local_model.network.run_view_algorithm`,
:func:`~repro.local_model.edge_model.run_edge_view_algorithm`,
:func:`~repro.speedup.finite_runner.run_node_algorithm_on_oriented_graph`,
:func:`~repro.speedup.pipeline.run_speedup_pipeline`) via the optional
``tracer=`` keyword.  Engines report each *event* at a well-defined
point through the one hook, ``tracer.on_event(name, **attrs)``;
tracers never influence execution — an instrumented run must produce
the exact same :class:`~repro.local_model.network.ExecutionResult` as
an uninstrumented one.

Zero-overhead contract
----------------------
``tracer=None`` (the default) and ``tracer=NullTracer()`` are the *same
path*: engines normalize both to ``None`` via :func:`effective_tracer`
and guard every event site with a single ``if tracer is not None``.  No
event objects are built, no sizes estimated, no clocks read.  This is
what lets every benchmark in ``benchmarks/`` keep its numbers while the
observability layer exists.

Events
------
==============  ==============================  ==========================
event           attributes                      fired by
==============  ==============================  ==========================
``run_start``   ``engine, algorithm, n,         every engine, once, before
                **info``                        any work
``round_start`` ``round, active``               message passing, once per
                                                synchronous round
``message``     ``sender, receiver, port,       message passing, once per
                payload, delivered``            sent message
``halt``        ``node, round, output``         message passing, when a
                                                node commits + stops
``round_end``   ``round``                       message passing, after
                                                deliveries + receives
``view``        ``center, radius, nodes,        view engines, once per
                edges``                         materialized ball
``layout``      ``engine, layout, requested,    view/edge runs, once per
                entities[, classes, path]``     run
``kernel``      ``engine, algorithm, path,      kernel-layout runs, once
                reason, entities[, classes |    per run
                rounds]``
``cache``       ``engine, lookups, hits,        memoizing engines, once
                misses, bytes,                  per run
                distinct_classes, hit_rate``
``service``     ``engine, event, kind,          service engine, once per
                requests, table_hits,           served request
                table_misses, graph_hits,
                graph_misses, evictions,
                bytes, tables, unkeyable``
``delta``       ``engine, ops, footprint,       incremental engine, once
                classes_invalidated,            per applied GraphDelta
                cache_survivors,
                changed_nodes, csr_mode``
``shard``       ``index, items, seed``          sharded engine, once per
                                                dispatched shard
``degraded``    ``engine, reason``              sharded engine, per
                                                in-process fallback
``subrun``      ``metrics``                     sharded batch runs, once
                                                per worker-side request
``trial``       ``index, succeeded,             finite runner, once per
                failing_nodes``                 Monte Carlo trial
``stage``       ``stage_kind, radius, name,     speedup pipeline, once per
                measured_failure,               ladder rung
                lemma_bound, threshold``
``run_end``     ``rounds, **info``              every engine, once, after
                                                the result is assembled
==============  ==============================  ==========================

``engine`` strings: ``"local"`` (message passing), ``"view"`` (node
views), ``"edge"`` (edge views), ``"finite"`` (oriented finite runner),
``"pipeline"`` (speedup ladder); the ``layout``, ``service``,
``delta`` and ``degraded`` events name the backend instead
(``"direct"``, ``"cached"``, ...).

``run_start``
    ``n`` counts nodes (or edges/trials — engine-specific); the Monte
    Carlo estimate adds ``trials``.  ``run_end``'s ``rounds`` is the
    engine's round count.
``round_start`` / ``halt`` / ``round_end``
    A synchronous round begins with ``active`` non-halted nodes;
    ``node`` commits ``output`` and goes silent after round ``round``
    (round 0 = during ``init``); the round's sends, deliveries and
    receives are all done.
``message``
    One message crosses (or fails to cross) an edge.  ``port`` is the
    *sender's* port.  ``delivered`` is False when the receiver has
    already halted — the model drops the message, but the sender still
    paid for it, so bandwidth accounting sees both.
``view``
    A radius-``radius`` ball was materialized around ``center`` (a
    node, or the ``(u, v)`` pair for edge views).  ``nodes``/``edges``
    size the ball — the view-engine analogue of bandwidth (everything
    in the ball crossed the wire to reach the center in the
    operational model).
``layout``
    Which graph layout served a ``view`` / ``edge`` run, fired once per
    run by every backend.  ``layout`` is the resolved layout name
    (``"dict"`` for the reference signatures, ``"csr"`` for the batched
    expander, or a registered fixture layout); ``requested`` is the
    request's knob (e.g. ``"auto"``).  Every run that partitions into
    classes (all but the direct backend's per-entity ``"dict"`` loop)
    adds ``classes`` (the partition size), and expander-backed layouts
    add ``path`` (``"numpy"`` or the exact ``"python"`` fallback).
``kernel``
    Which execution path served a run that resolved to
    ``layout="kernel"`` (see ``docs/KERNELS.md``), fired once per run by
    every backend.  ``path`` is ``"vectorized"`` when a registered
    NumPy kernel ran, ``"fallback"`` when the exact per-entity Python
    path did; ``reason`` says why the fallback ran (``"no-kernel"``,
    ``"unsupported: ..."``, ``"python-partition"``; ``None`` on the
    vectorized path).  View/edge kinds add ``classes`` (the partition
    size), the vectorized local kind ``rounds``.  Kernel choice never
    changes results — only how they were computed.
``cache``
    A memoizing engine's per-run cache statistics, fired once just
    before ``run_end`` by the cached view engines and the finite
    runner: the JSON-ready form of
    :class:`~repro.local_model.cache.CacheStats`, covering this run
    only even when the underlying cache is shared across runs.
``service``
    Cross-request cache activity of
    :class:`~repro.core.service.ServiceEngine`, once per served request
    after the run completes; a batch fires one event per request,
    exactly as if each had arrived alone.  ``event`` is always
    ``"request"``, ``kind`` the request's kind, ``requests`` 1.
    ``table_hits`` / ``table_misses`` say whether the request's
    algorithm found a warm cross-request class table; ``graph_hits`` /
    ``graph_misses`` whether its graph was already frozen,
    CSR-compiled and fitted with the partition memo (the engine's
    lifetime ``graph_*`` counters count
    :meth:`~repro.core.service.ServiceEngine.warm_graph` lookups
    instead).  ``evictions`` counts whole tables dropped by the LRU
    sweep during this event; ``bytes`` (the estimated footprint of all
    live tables) and ``tables`` are snapshots, not additive;
    ``unkeyable`` is true when the algorithm could not be given a
    stable cross-request key (the run was served correctly from a fresh
    private table).  Serving from the service cache never changes
    results — responses stay bit-identical to a cold direct run.
``delta``
    :meth:`~repro.core.incremental.IncrementalEngine.apply` applied one
    :class:`~repro.graphs.delta.GraphDelta`: ``ops`` (batch size),
    ``footprint`` (dirty nodes re-partitioned),
    ``classes_invalidated`` (classes evaluated fresh),
    ``cache_survivors`` (dirty classes served from the memo),
    ``changed_nodes`` (entities whose class actually changed), and
    ``csr_mode`` (``"patch"`` / ``"recompile"`` / ``"lazy"`` — how the
    mutated graph's CSR layout was produced).  Deltas never change
    results relative to a fresh run on the mutated graph — only how
    much work it took.
``shard``
    ``items`` counts the view-equivalence classes (or requests, for
    batch runs) in the shard; ``seed`` is the shard's sha256-derived
    seed (:func:`~repro.core.engine.derive_seed`'s scheme).
``degraded``
    A backend fell back to a slower-but-correct execution path: the
    sharded engine could not use its process pool (or it stopped
    responding) and the run continued in-process.  ``reason`` is a
    short machine-checkable string (``"unpicklable"``, ``"no-fork"``,
    ``"pool-error: ..."``).  Degradation never changes results — only
    how they were computed — and the matching
    :class:`~repro.core.SimReport` carries the same reason under
    ``info["degraded"]``.
``subrun``
    A fanned-out subrun of the sharded engine's
    :meth:`~repro.core.engine.Engine.run_many` finished: each
    worker-side run is observed by its own
    :class:`~repro.instrumentation.metrics.MetricsTracer`, and
    ``metrics`` is its
    :meth:`~repro.instrumentation.metrics.RunMetrics.to_dict` payload
    relayed to the parent — so cache/layout/kernel counters from worker
    processes are never lost.  :class:`MetricsTracer` folds the
    additive counters into the parent's
    :class:`~repro.instrumentation.metrics.RunMetrics`.
``trial`` / ``stage``
    One Monte Carlo trial of the finite runner finished; one rung of
    the speedup ladder was constructed and measured.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

__all__ = ["Tracer", "NullTracer", "MultiTracer", "effective_tracer"]


class Tracer:
    """Base tracer: every event is ignored.

    Subclass and override :meth:`on_event`, dispatching on the event
    name; see :class:`~repro.instrumentation.metrics.MetricsTracer` for
    an aggregating example and
    :class:`~repro.instrumentation.recorder.TraceRecorder` for a
    full-fidelity event log.
    """

    def on_event(self, name: str, /, **attrs: Any) -> None:
        """One engine event: ``name`` and ``attrs`` per the module's event table."""


class NullTracer(Tracer):
    """The do-nothing tracer.

    Engines treat it as identical to passing no tracer at all (see
    :func:`effective_tracer`), so it is guaranteed zero-overhead — not
    merely cheap.
    """


class MultiTracer(Tracer):
    """Fan one event stream out to several tracers, in order."""

    def __init__(self, *tracers: Tracer):
        self.tracers: Tuple[Tracer, ...] = tuple(
            t for t in tracers if effective_tracer(t) is not None
        )

    def on_event(self, name: str, /, **attrs: Any) -> None:
        for t in self.tracers:
            t.on_event(name, **attrs)


def effective_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Normalize a tracer argument to the engine-internal form.

    ``None`` and :class:`NullTracer` instances (including an empty
    :class:`MultiTracer`) collapse to ``None`` so the hot loops pay one
    pointer comparison and nothing else.  Anything else is returned
    unchanged.
    """
    if tracer is None or type(tracer) is NullTracer:
        return None
    if isinstance(tracer, MultiTracer) and not tracer.tracers:
        return None
    return tracer
