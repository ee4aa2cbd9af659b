"""The direct backend: evaluate every computing entity, no shortcuts.

This is the reference implementation of all four request kinds — the
semantics every other backend must reproduce bit for bit.  The loops
here are the former bodies of the legacy entry points
(``run_local``, ``run_view_algorithm``, ``run_edge_view_algorithm``,
``run_node_algorithm_on_oriented_graph``), moved behind the
:class:`~repro.core.engine.Engine` seam; the legacy functions are now
thin adapters over :func:`~repro.core.engine.simulate` and keep their
exact signatures, faithfulness guarantees, and tracer event streams.

It also owns the one deduplicating ``view`` / ``edge`` routine,
:meth:`DirectEngine._run_classes` — partition the entities into ball
classes, evaluate one representative per class, broadcast — that every
backend runs on every layout except the direct backend's per-entity
``"dict"`` reference.  The cached, sharded and incremental backends
subclass this engine and plug an evaluation policy (a memo table, a
process pool, a class memo that outlives graph mutations) into
:meth:`DirectEngine._evaluate_classes`.  Every view/edge ball on every
path is gathered and evaluated by :func:`ball_evaluator`: the
reference loop calls it on every entity, the routine on each class
representative.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..graphs.graph import edge_key
from ..instrumentation.tracer import Tracer, effective_tracer
from ..local_model import kernels as _kernels
from ..local_model.batch_views import (
    ClassPartition,
    expander_for,
    resolve_layout,
    signature_partition,
)
from ..local_model.context import NodeContext
from ..local_model.views import gather_edge_view, gather_view
from .engine import Engine, SimReport, SimRequest

__all__ = ["DirectEngine", "ball_evaluator", "ball_inputs"]


def ball_inputs(request: SimRequest) -> Tuple[Any, ...]:
    """The request fields one ball evaluation reads, in
    :func:`ball_evaluator` argument order (and picklable iff they are)."""
    return (
        request.kind,
        request.graph,
        request.algorithm,
        request.ids,
        request.inputs,
        request.randomness,
        request.orientation,
    )


def ball_evaluator(
    kind: str,
    graph: Any,
    algorithm: Any,
    ids: Optional[Sequence[Any]] = None,
    inputs: Optional[Sequence[Any]] = None,
    randomness: Optional[Sequence[Any]] = None,
    orientation: Optional[Any] = None,
    tracer: Optional[Tracer] = None,
) -> Callable[[Any], Any]:
    """``entity -> output``: gather the entity's ball, apply the algorithm.

    The one place a view/edge ball is gathered and evaluated — a node
    for ``kind == "view"`` (``algorithm.output``), an edge for
    ``"edge"`` (``algorithm.output_fn``) — whether the entity is a class
    representative or, on the direct backend's reference path, every
    entity.  Each gathered ball fires a ``view`` event.
    """
    if kind == "view":
        gather, output, radius = gather_view, algorithm.output, algorithm.radius
    else:
        gather, output = gather_edge_view, algorithm.output_fn
        radius = algorithm.view_radius()

    def evaluate(entity: Any) -> Any:
        view = gather(
            graph, entity, radius,
            ids=ids, inputs=inputs, randomness=randomness,
            orientation=orientation,
        )
        if tracer is not None:
            tracer.on_event(
                "view", center=entity, radius=view.radius,
                nodes=view.node_count, edges=len(view.edges),
            )
        return output(view)

    return evaluate


class DirectEngine(Engine):
    """Current semantics: one evaluation per node / edge / entity.

    ``view`` / ``edge`` requests honor the request's ``layout`` knob:
    ``"auto"`` resolves to the reference ``"dict"`` path here (the
    direct backend *is* the reference), which evaluates every entity.
    Any other layout takes the one partition -> evaluate -> broadcast
    routine (:meth:`_run_classes`) that every backend shares; the
    backends differ only in the evaluation policy they plug into it
    (:meth:`_evaluate_classes`).
    """

    name = "direct"

    #: Whether this backend deduplicates by default: ``layout="auto"``
    #: resolves to the batched CSR layout on frozen graphs and escalates
    #: ``local`` / ``finite`` runs to registered kernels, and
    #: ``layout="dict"`` partitions by reference signature instead of
    #: evaluating every entity.  The direct backend keeps the reference
    #: paths; the memoizing backends override this.
    prefer_csr = False

    def run(self, request: SimRequest, tracer: Optional[Tracer] = None) -> SimReport:
        """Execute ``request`` and return its :class:`SimReport`."""
        tracer = effective_tracer(tracer)
        if request.kind == "local":
            return self._run_local(request, tracer)
        if request.kind == "finite":
            return self._run_finite(request, tracer)
        layout = resolve_layout(request.layout, request.graph, self.prefer_csr)
        if layout == "dict" and not self.prefer_csr:
            return self._run_reference(request, tracer)
        return self._run_classes(request, layout, tracer)

    # -- "local": the synchronous message-passing round -----------------
    def _wants_local_kernel(self, request: SimRequest) -> bool:
        """Whether this ``local`` request should try the round kernel.

        Explicit ``layout="kernel"`` always tries (and falls back
        exactly when unsupported); ``"auto"`` escalates only on the
        ``prefer_csr`` backends, only on frozen non-empty graphs, and
        only when the algorithm registers a kernel — so the direct
        backend stays the reference loop by default.
        """
        if request.layout == "kernel":
            return True
        return (
            request.layout == "auto"
            and self.prefer_csr
            and getattr(request.graph, "is_frozen", False)
            and getattr(request.graph, "can_materialize", True)
            and request.graph.n > 0
            and _kernels.local_kernel_for(request.algorithm) is not None
        )

    def _run_local_kernel(
        self, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        """The vectorized round-kernel path (raises KernelUnsupported
        back to :meth:`_run_local` when the kernel declines).  The
        caller has already fired ``run_start``."""
        algorithm, n = request.algorithm, request.graph.n
        outputs, halt_rounds, rounds = _kernels.run_local_kernel(
            algorithm, request
        )
        if tracer is not None:
            tracer.on_event(
                "kernel", engine="local", algorithm=algorithm.name,
                path="vectorized", reason=None, entities=n, rounds=rounds,
            )
            tracer.on_event("run_end", rounds=rounds)
        return SimReport(
            kind="local",
            outputs=outputs,
            halt_rounds=halt_rounds,
            rounds=rounds,
            backend=self.name,
            info={"kernel": "vectorized"},
        )

    def _run_local(
        self, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        graph, algorithm = request.graph, request.algorithm
        ids, inputs = request.ids, request.inputs
        n = graph.n
        if ids is not None and len(ids) != n:
            raise ValueError("ids must have one entry per node")
        if inputs is not None and len(inputs) != n:
            raise ValueError("inputs must have one entry per node")
        if tracer is not None:
            # Before the kernel attempt, so its time counts as the run's.
            tracer.on_event("run_start", engine="local", algorithm=algorithm.name, n=n)
        kernel_reason: Optional[str] = None
        if self._wants_local_kernel(request):
            try:
                return self._run_local_kernel(request, tracer)
            except _kernels.KernelUnsupported as exc:
                kernel_reason = str(exc)
        max_rounds = request.max_rounds
        if max_rounds is None:
            max_rounds = 4 * n + 16
        master = request.resolved_rng()
        delta = graph.max_degree()
        orientation = request.orientation

        contexts: List[NodeContext] = []
        for v in graph.nodes():
            port_dirs = None
            if orientation is not None:
                port_dirs = {}
                for port, u in enumerate(graph.neighbors(v)):
                    if orientation.is_labeled(v, u):
                        port_dirs[port] = orientation.direction_at(v, u)
            contexts.append(
                NodeContext(
                    degree=graph.degree(v),
                    n=n,
                    delta=delta,
                    identifier=None if ids is None else ids[v],
                    input_label=None if inputs is None else inputs[v],
                    port_directions=port_dirs,
                    rng=random.Random(master.getrandbits(64)),
                    forbid_randomness=request.deterministic,
                )
            )

        if tracer is not None and kernel_reason is not None:
            tracer.on_event(
                "kernel", engine="local", algorithm=algorithm.name,
                path="fallback", reason=kernel_reason, entities=n,
            )

        halt_rounds: List[Optional[int]] = [None] * n
        for v in graph.nodes():
            algorithm.init(contexts[v])
            if contexts[v].halted:
                halt_rounds[v] = 0
                if tracer is not None:
                    tracer.on_event("halt", node=v, round=0, output=contexts[v].output)

        rounds = 0
        active = [v for v in graph.nodes() if not contexts[v].halted]
        while active:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError(
                    f"{algorithm.name}: {len(active)} nodes still running after "
                    f"{max_rounds} rounds — runaway algorithm?"
                )
            for v in active:
                contexts[v].round_number = rounds
            if tracer is not None:
                tracer.on_event("round_start", round=rounds, active=len(active))
            outboxes: Dict[int, Dict[int, Any]] = {}
            for v in active:
                msgs = algorithm.send(contexts[v])
                if msgs:
                    outboxes[v] = msgs
            inboxes: Dict[int, Dict[int, Any]] = {v: {} for v in active}
            for v, msgs in outboxes.items():
                for port, payload in msgs.items():
                    u = graph.endpoint(v, port)
                    delivered = not contexts[u].halted
                    if delivered:
                        inboxes[u][graph.port_to(u, v)] = payload
                    if tracer is not None:
                        tracer.on_event(
                            "message", sender=v, receiver=u, port=port,
                            payload=payload, delivered=delivered,
                        )
            next_active = []
            for v in active:
                algorithm.receive(contexts[v], inboxes[v])
                if contexts[v].halted:
                    halt_rounds[v] = rounds
                    if tracer is not None:
                        tracer.on_event(
                            "halt", node=v, round=rounds, output=contexts[v].output
                        )
                else:
                    next_active.append(v)
            active = next_active
            if tracer is not None:
                tracer.on_event("round_end", round=rounds)

        total = max((r for r in halt_rounds if r is not None), default=0)
        if tracer is not None:
            tracer.on_event("run_end", rounds=total)
        info: Dict[str, Any] = {}
        if kernel_reason is not None:
            info = {"kernel": "fallback", "kernel_reason": kernel_reason}
        return SimReport(
            kind="local",
            outputs=[contexts[v].output for v in graph.nodes()],
            halt_rounds=halt_rounds,
            rounds=total,
            backend=self.name,
            info=info,
        )

    # -- "view"/"edge": partition -> evaluate -> broadcast ---------------
    def _run_classes(
        self, request: SimRequest, layout: str, tracer: Optional[Tracer]
    ) -> SimReport:
        """The one deduplicating view/edge run, for every backend.

        1. **Partition** the entities into ball classes: the reference
           signature scan on ``"dict"``, the layout's expander otherwise.
        2. **Evaluate** one representative per class: the vectorized
           class table on ``"kernel"`` (exact per-representative
           fallback when the kernel declines), else the backend's
           :meth:`_evaluate_classes` policy.
        3. **Broadcast** each class output to every member.
        """
        graph, algorithm, kind = request.graph, request.algorithm, request.kind
        labeling = {
            "ids": request.ids,
            "inputs": request.inputs,
            "randomness": request.randomness,
            "orientation": request.orientation,
        }
        entities, rounds = self._begin(request, tracer)
        radius = algorithm.radius if kind == "view" else algorithm.view_radius()
        if layout == "dict":
            part = signature_partition(graph, kind, entities, radius, **labeling)
        elif kind == "view":
            part = expander_for(graph, layout).node_classes(radius, **labeling)
        else:
            part = expander_for(graph, layout).edge_classes(
                entities, radius, **labeling
            )
        if tracer is not None:
            layout_info = {"requested": request.layout,
                           "entities": len(entities),
                           "classes": part.class_count}
            if layout != "dict":  # only expanders have a path to report
                layout_info["path"] = part.path
            tracer.on_event("layout", engine=self.name, layout=layout, **layout_info)
        reps = [entities[i] for i in part.reps]
        evaluate = ball_evaluator(*ball_inputs(request), tracer=tracer)
        step = self._kernel_table if layout == "kernel" else self._evaluate_classes
        table, info = step(request, part, reps, evaluate, tracer)
        values = _kernels.broadcast_table(table, part.labels)
        return self._finish(request, entities, values, rounds, info, tracer)

    def _run_reference(
        self, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        """The per-entity ``dict`` reference: every node (``view``) or
        edge (``edge``) ball is gathered and evaluated — the oracle the
        deduplicating routine must reproduce."""
        entities, rounds = self._begin(request, tracer)
        if tracer is not None:
            tracer.on_event(
                "layout", engine=self.name, layout="dict",
                requested=request.layout, entities=len(entities),
            )
        evaluate = ball_evaluator(*ball_inputs(request), tracer=tracer)
        values = [evaluate(entity) for entity in entities]
        return self._finish(request, entities, values, rounds, {}, tracer)

    @staticmethod
    def _begin(
        request: SimRequest, tracer: Optional[Tracer]
    ) -> Tuple[Sequence[Any], int]:
        """A view/edge run's entities (nodes, or edges in ``graph.edges()``
        order) and round count; fires the run's ``run_start``."""
        graph, algorithm = request.graph, request.algorithm
        if request.kind == "view":
            entities: Sequence[Any] = range(graph.n)
            rounds = algorithm.radius
        else:
            entities, rounds = list(graph.edges()), algorithm.rounds
        if tracer is not None:
            tracer.on_event(
                "run_start", engine=request.kind, algorithm=algorithm.name,
                n=len(entities),
            )
        return entities, rounds

    def _finish(
        self,
        request: SimRequest,
        entities: Sequence[Any],
        values: List[Any],
        rounds: int,
        info: Dict[str, Any],
        tracer: Optional[Tracer],
    ) -> SimReport:
        """Fire ``run_end`` and wrap one output per entity as the report."""
        if tracer is not None:
            tracer.on_event("run_end", rounds=rounds)
        if request.kind == "view":
            return SimReport(
                kind="view",
                outputs=values,
                halt_rounds=[rounds] * request.graph.n,
                rounds=rounds,
                backend=self.name,
                info=info,
            )
        return SimReport(
            kind="edge",
            outputs={
                edge_key(u, v): value for (u, v), value in zip(entities, values)
            },
            rounds=rounds,
            backend=self.name,
            info=info,
        )

    def _kernel_table(
        self,
        request: SimRequest,
        part: ClassPartition,
        reps: List[Any],
        evaluate: Callable[[Any], Any],
        tracer: Optional[Tracer],
    ) -> Tuple[List[Any], Dict[str, Any]]:
        """Step 2 on ``layout="kernel"``, shared by all backends.

        The class table *is* the memo, so nothing is cached or sharded.
        When the algorithm has no registered kernel — or its kernel
        declines — each representative is evaluated the reference way,
        so the layout is available for every view/edge algorithm.
        """
        try:
            table = _kernels.run_view_kernel(request.algorithm, part)
            kinfo = {"path": "vectorized", "reason": None}
        except _kernels.KernelUnsupported as exc:
            table = [evaluate(rep) for rep in reps]
            kinfo = {"path": "fallback", "reason": str(exc)}
        kinfo["entities"] = len(part.labels)
        kinfo["classes"] = part.class_count
        if tracer is not None:
            tracer.on_event(
                "kernel", engine=request.kind, algorithm=request.algorithm.name,
                **kinfo,
            )
        return table, {"distinct_classes": part.class_count,
                       "kernel": kinfo["path"]}

    def _evaluate_classes(
        self,
        request: SimRequest,
        part: ClassPartition,
        reps: List[Any],
        evaluate: Callable[[Any], Any],
        tracer: Optional[Tracer],
    ) -> Tuple[List[Any], Dict[str, Any]]:
        """Step 2 policy: one output per class, plus the report's info.

        The direct backend plugs in nothing: every representative is
        gathered and evaluated in-process.
        """
        return [evaluate(rep) for rep in reps], {
            "distinct_classes": part.class_count
        }

    # -- "finite": oriented-tree algorithms on finite graphs ------------
    def _wants_finite_kernel(self, request: SimRequest) -> bool:
        """Whether this ``finite`` request should try the batched kernel.

        Same policy as :meth:`_wants_local_kernel`: explicit
        ``layout="kernel"`` always tries, ``"auto"`` escalates only on
        the ``prefer_csr`` backends when a kernel is registered — the
        direct backend stays the reference per-node loop by default.
        (No frozen-graph requirement: the finite reduction builds its
        arc arrays from the neighbor lists.)
        """
        if request.layout == "kernel":
            return True
        return (
            request.layout == "auto"
            and self.prefer_csr
            and request.graph.n > 0
            and _kernels.finite_kernel_for(request.algorithm) is not None
        )

    @staticmethod
    def _finite_views(alg: Any, graph: Any, tracer: Tracer) -> None:
        """One ``view`` event per node: every finite ball has the
        algorithm's radius and the oriented ball's word count."""
        ball_size = len(alg.ball.words)
        for v in graph.nodes():
            tracer.on_event(
                "view", center=v, radius=alg.t,
                nodes=ball_size, edges=max(0, ball_size - 1),
            )

    def _run_finite_kernel(
        self, request: SimRequest, tables, tracer: Optional[Tracer]
    ) -> SimReport:
        """The distinct-assignment kernel path (raises KernelUnsupported
        back to :meth:`_run_finite` when the kernel declines).  The
        caller has already fired ``run_start``."""
        graph, alg = request.graph, request.algorithm
        fn = _kernels.finite_kernel_for(alg)
        if fn is None:
            raise _kernels.KernelUnsupported("no-kernel")
        before = alg.cache.stats.copy() if tracer is not None else None
        outputs, failing = fn(alg, graph, request.values, tables)
        outputs, failing = list(outputs), list(failing)
        if len(outputs) != graph.n:
            raise RuntimeError(
                f"finite kernel for {type(alg).__name__} returned "
                f"{len(outputs)} outputs for {graph.n} nodes"
            )
        if tracer is not None:
            self._finite_views(alg, graph, tracer)
            tracer.on_event(
                "kernel", engine="finite", algorithm=alg.name,
                path="vectorized", reason=None, entities=graph.n,
            )
            tracer.on_event(
                "cache", engine="finite", **alg.cache.stats.delta(before).to_dict()
            )
            tracer.on_event("run_end", rounds=alg.t)
        return SimReport(
            kind="finite",
            outputs=outputs,
            rounds=alg.t,
            failing_nodes=failing,
            backend=self.name,
            info={"kernel": "vectorized"},
        )

    def _run_finite(
        self, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        # Lazy import: repro.speedup imports the core seam at module
        # scope, so the reverse edge must resolve at call time.
        from ..local_model.cache import ball_assignment_key
        from ..speedup.finite_runner import resolve_ball_tables

        graph, alg = request.graph, request.algorithm
        values, tables = request.values, request.tables
        if values is None:
            raise ValueError("finite requests need per-node random values")
        if len(values) != graph.n:
            raise ValueError("need one random value per node")
        if any(not 0 <= x < alg.values for x in values):
            raise ValueError(f"values must lie in [0, {alg.values})")
        if tables is None:
            tables = resolve_ball_tables(alg, graph, request.orientation)

        if tracer is not None:
            # Before the kernel attempt, so its time counts as the run's.
            tracer.on_event("run_start", engine="finite", algorithm=alg.name, n=graph.n)
        kernel_reason: Optional[str] = None
        if self._wants_finite_kernel(request):
            try:
                return self._run_finite_kernel(request, tables, tracer)
            except _kernels.KernelUnsupported as exc:
                kernel_reason = str(exc)

        if tracer is not None:
            if kernel_reason is not None:
                tracer.on_event(
                    "kernel", engine="finite", algorithm=alg.name,
                    path="fallback", reason=kernel_reason, entities=graph.n,
                )
            self._finite_views(alg, graph, tracer)
        before = alg.cache.stats.copy() if tracer is not None else None
        outputs: List[Any] = [
            alg.evaluate(ball_assignment_key(values, tables[v]))
            for v in graph.nodes()
        ]
        failing = [
            v
            for v in graph.nodes()
            if graph.degree(v) > 0
            and all(outputs[u] == outputs[v] for u in graph.neighbors(v))
        ]
        if tracer is not None:
            # The algorithm's assignment cache outlives the run; report
            # only the lookups this run contributed.
            tracer.on_event(
                "cache", engine="finite", **alg.cache.stats.delta(before).to_dict()
            )
            tracer.on_event("run_end", rounds=alg.t)
        info: Dict[str, Any] = {}
        if kernel_reason is not None:
            info = {"kernel": "fallback", "kernel_reason": kernel_reason}
        return SimReport(
            kind="finite",
            outputs=outputs,
            rounds=alg.t,
            failing_nodes=failing,
            backend=self.name,
            info=info,
        )
