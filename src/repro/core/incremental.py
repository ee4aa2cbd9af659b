"""The incremental backend: re-run only a delta's radius-t footprint.

:class:`IncrementalEngine` is the stateful companion to the other
backends.  :meth:`IncrementalEngine.run` primes it on one
:class:`~repro.core.engine.SimRequest` through the partition ->
evaluate -> broadcast routine every backend shares
(:meth:`DirectEngine._run_classes <repro.core.direct.DirectEngine.
_run_classes>`, ``"csr"`` layout), plugging in a class memo as the
evaluation policy.  :meth:`IncrementalEngine.apply` then accepts
:class:`~repro.graphs.delta.GraphDelta` batches and produces the report
for the *mutated* graph by re-running only the balls the delta touches:

1.  :meth:`GraphDelta.footprint <repro.graphs.delta.GraphDelta.
    footprint>` bounds the nodes whose radius-t view can change — the
    paper's locality argument made operational.  The dirty entities
    are those nodes (``view``) or the edges incident to them (``edge``).
2.  The batched expander partitions just the dirty entities
    (``sources=`` subset pass for nodes); subset keys live in the same
    key space as full-run keys, so the same memo policy finds every
    class already seen and evaluates only genuinely new classes, one
    :func:`~repro.core.direct.ball_evaluator` call each.
3.  The previous run's outputs are spliced: untouched entities keep
    their values, dirty entities take their (possibly memoized) class
    output, and the report's ``changed_nodes`` field lists the nodes
    whose class actually changed.

Steps 1 and 2 — the BFS, the ball gathering and the algorithm calls —
cost time proportional to the footprint's balls, not n.  The rest of an
apply is linear: the splice copies the previous output list (or dict),
and building the mutated graph (:class:`GraphDelta` validation and
replay, the CSR patch) touches every edge.  At n = 10^6 those graph
layers, not this engine, dominate an apply (``docs/INCREMENTAL.md``).

The correctness contract is absolute bit-identity with a fresh
:class:`~repro.core.direct.DirectEngine` run on the mutated graph —
proven by the delta-differential harness (``tests/differential.py``),
the conformance ``delta-identity`` check, and the hypothesis suite
(``tests/test_incremental_properties.py``).  Requests the subset pass
cannot serve (``local`` / ``finite`` kinds, oriented runs, empty
graphs) fall back to *recompute mode*: every ``apply`` re-runs the
direct backend on the mutated graph, so the contract holds everywhere
even where the footprint optimization does not apply.

See ``docs/INCREMENTAL.md`` for the delta model and the footprint
argument.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..graphs.delta import GraphDelta, GraphDeltaError
from ..graphs.graph import edge_key
from ..instrumentation.tracer import Tracer, effective_tracer
from ..local_model.batch_views import ClassPartition, expander_for
from .direct import DirectEngine, ball_evaluator
from .engine import SimReport, SimRequest

__all__ = ["IncrementalEngine"]


class _State:
    """The engine's mutable snapshot of the last materialized run."""

    __slots__ = (
        "mode",
        "request",
        "graph",
        "ids",
        "inputs",
        "randomness",
        "memo",
        "keys",
        "evaluated_keys",
        "outputs",
    )

    def __init__(self, mode: str, request: SimRequest, graph: Any):
        self.mode = mode  # "view" | "edge" | "recompute"
        self.request = request
        self.graph = graph
        self.ids = list(request.ids) if request.ids is not None else None
        self.inputs = list(request.inputs) if request.inputs is not None else None
        self.randomness = (
            list(request.randomness) if request.randomness is not None else None
        )
        self.memo: Dict[Any, Any] = {}
        #: Class key per entity: a per-node list (view mode) or an
        #: ``{edge: key}`` dict (edge mode).
        self.keys: Any = None
        #: Per-entity keys of the last partition the memo policy saw.
        self.evaluated_keys: List[Any] = []
        self.outputs: Any = None


class IncrementalEngine(DirectEngine):
    """Stateful backend answering deltas by re-running their footprint.

    Lifecycle: :meth:`run` primes the engine on a request (any kind —
    it behaves as a normal backend and its report is bit-identical to
    the direct backend's), then :meth:`apply` advances the primed state
    through :class:`~repro.graphs.delta.GraphDelta` batches, returning
    after each one the exact report a fresh direct run on the mutated
    graph would produce, plus ``changed_nodes``.

    Priming runs the shared partition -> evaluate -> broadcast routine
    (:meth:`DirectEngine._run_classes <repro.core.direct.DirectEngine.
    _run_classes>`) on the ``"csr"`` layout with this engine's class
    memo as the evaluation policy; each ``apply`` partitions only the
    dirty entities and runs the same policy on the mutated graph.

    One engine tracks one evolving run: priming again replaces the
    state.  Like the cached backend, the class memo is keyed by
    canonical signatures only — keep one engine per algorithm.
    """

    name = "incremental"

    def __init__(self) -> None:
        # Recompute mode re-runs, and its events name, the direct backend.
        self._direct = DirectEngine()
        self._state: Optional[_State] = None

    # ------------------------------------------------------------------
    # Priming
    # ------------------------------------------------------------------
    def run(
        self, request: SimRequest, tracer: Optional[Tracer] = None
    ) -> SimReport:
        """Execute ``request`` and prime the incremental state on it."""
        tracer = effective_tracer(tracer)
        incremental_ok = (
            request.kind in ("view", "edge")
            and getattr(request.graph, "is_frozen", False)
            and request.orientation is None
            and request.graph.n > 0
        )
        if not incremental_ok:
            state = _State("recompute", request, request.graph)
            report = self._rewrap(self._direct.run(request, tracer))
            state.outputs = report.outputs
            self._state = state
            return report
        state = _State(request.kind, request, request.graph)
        previous, self._state = self._state, state
        try:
            report = self._run_classes(request, "csr", tracer)
        except BaseException:
            self._state = previous
            raise
        if request.kind == "view":
            state.keys = state.evaluated_keys
        else:
            state.keys = dict(zip(report.outputs, state.evaluated_keys))
        state.outputs = report.outputs
        return report

    def _rewrap(self, report: SimReport) -> SimReport:
        """A direct-backend report re-badged as this engine's (identity-preserving)."""
        return replace(report, backend=self.name, info=dict(report.info))

    def _evaluate_classes(
        self,
        request: SimRequest,
        part: ClassPartition,
        reps: List[Any],
        evaluate: Callable[[Any], Any],
        tracer: Optional[Tracer],
    ) -> Tuple[List[Any], Dict[str, Any]]:
        """Step 2 policy, on priming and on every apply: the class memo.

        Each class key is looked up in the engine's memo and only a
        miss evaluates its representative; the memo outlives deltas, so
        a class seen before any mutation is never evaluated again.  The
        partitioned entities' keys are recorded for the splice.  No
        ``cache`` event fires: each apply reports its memo hits and
        misses in its ``delta`` event.
        """
        state = self._state
        assert state is not None
        memo = state.memo
        table: List[Any] = []
        for key, rep in zip(part.keys, reps):
            if key not in memo:
                memo[key] = evaluate(rep)
            table.append(memo[key])
        keys = part.keys
        state.evaluated_keys = [keys[c] for c in part.labels]
        return table, {"distinct_classes": len(memo)}

    # ------------------------------------------------------------------
    # Introspection (read-only; the tests and docs examples use these)
    # ------------------------------------------------------------------
    @property
    def current_graph(self) -> Optional[Any]:
        """The graph of the engine's current state (``None`` if unprimed)."""
        return self._state.graph if self._state is not None else None

    def current_node_keys(self) -> Optional[Tuple[Any, ...]]:
        """Per-node canonical class keys of the current state.

        Only meaningful in view mode (``None`` otherwise).  Equal keys
        <=> equal view classes; the property suite compares this
        partition against from-scratch reference signatures.
        """
        if self._state is None or self._state.mode != "view":
            return None
        return tuple(self._state.keys)

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def apply(
        self,
        delta: Union[GraphDelta, Sequence[GraphDelta]],
        tracer: Optional[Tracer] = None,
    ) -> SimReport:
        """Advance the primed run through one delta (or a sequence).

        Each delta must be built against the engine's *current* graph
        (the object identity check in :meth:`GraphDelta.apply_to
        <repro.graphs.delta.GraphDelta.apply_to>` raises
        :class:`~repro.graphs.delta.GraphDeltaError` on stale handles).
        Returns the report for the final mutated graph — bit-identical
        to a fresh direct run — with ``changed_nodes`` listing the
        nodes whose view class changed under the last delta (a
        conservative superset when the packed-stream element width
        shifts between runs; never an underestimate).
        """
        if self._state is None:
            raise GraphDeltaError(
                "apply() requires a primed engine; call run() first"
            )
        deltas = [delta] if isinstance(delta, GraphDelta) else list(delta)
        if not deltas:
            raise GraphDeltaError("apply() needs at least one delta")
        tracer = effective_tracer(tracer)
        report: Optional[SimReport] = None
        for d in deltas:
            if not isinstance(d, GraphDelta):
                raise GraphDeltaError(
                    f"apply() takes GraphDelta instances, got {type(d).__name__}"
                )
            report = self._apply_one(d, tracer)
        assert report is not None
        return report

    def _dirty_nodes(self, delta: GraphDelta, radius: int) -> List[int]:
        """The delta's dirty node set (override point for broken fixtures)."""
        return delta.footprint(radius)

    def _apply_one(
        self, delta: GraphDelta, tracer: Optional[Tracer]
    ) -> SimReport:
        state = self._state
        assert state is not None
        graph = delta.apply_to(state.graph)
        ids, inputs, randomness = delta.apply_to_labels(
            state.ids, state.inputs, state.randomness
        )
        apply = (
            self._apply_recompute if state.mode == "recompute"
            else self._apply_footprint
        )
        report = apply(state, delta, graph, ids, inputs, randomness, tracer)
        state.graph = graph
        state.ids, state.inputs, state.randomness = ids, inputs, randomness
        state.outputs = report.outputs
        return report

    def _apply_footprint(
        self,
        state: _State,
        delta: GraphDelta,
        graph: Any,
        ids: Optional[List[int]],
        inputs: Optional[List[Any]],
        randomness: Optional[List[Any]],
        tracer: Optional[Tracer],
    ) -> SimReport:
        """Re-partition the dirty entities, evaluate their new classes
        through the memo policy, splice them into the previous run."""
        request = state.request
        kind, algorithm = request.kind, request.algorithm
        labeling = {"ids": ids, "inputs": inputs, "randomness": randomness}
        expander = expander_for(graph, "csr")
        dirty: List[Any]
        if kind == "view":
            radius = rounds = algorithm.radius
            dirty = self._dirty_nodes(delta, radius)
            footprint = len(dirty)
            part = expander.node_classes(radius, sources=dirty, **labeling)
        else:
            radius, rounds = algorithm.view_radius(), algorithm.rounds
            fp = set(self._dirty_nodes(delta, radius))
            footprint = len(fp)
            rows = graph.adjacency_rows()
            dirty = sorted({edge_key(v, u) for v in fp for u in rows[v]})
            part = expander.edge_classes(dirty, radius, **labeling)
        memo = state.memo
        known = len(memo)
        evaluate = ball_evaluator(kind, graph, algorithm, tracer=tracer, **labeling)
        self._evaluate_classes(
            request, part, [dirty[i] for i in part.reps], evaluate, tracer
        )
        # Class keys are distinct within a partition: each miss adds one entry.
        invalidated = len(memo) - known
        survivors = part.class_count - invalidated

        outputs, keys = state.outputs.copy(), state.keys
        if kind == "edge":
            for op in delta.ops:
                if op[0] == "remove":
                    key = edge_key(op[1], op[2])
                    if not graph.has_edge(*key):
                        outputs.pop(key, None)
                        keys.pop(key, None)
        old_key = keys.__getitem__ if kind == "view" else keys.get
        changed: List[Any] = []
        for entity, key in zip(dirty, state.evaluated_keys):
            if old_key(entity) != key:
                changed.append(entity)
                keys[entity] = key
                outputs[entity] = memo[key]
        if kind == "edge":
            changed = sorted({v for e in changed for v in e})
        if tracer is not None:
            tracer.on_event(
                "delta", engine=self.name, ops=len(delta.ops),
                footprint=footprint, classes_invalidated=invalidated,
                cache_survivors=survivors, changed_nodes=len(changed),
                csr_mode=delta.csr_mode,
            )
        return SimReport(
            kind=kind,
            outputs=outputs,
            halt_rounds=[rounds] * graph.n if kind == "view" else None,
            rounds=rounds,
            backend=self.name,
            changed_nodes=changed,
            info={
                "distinct_classes": len(memo),
                "footprint": footprint,
                "csr_mode": delta.csr_mode,
            },
        )

    def _apply_recompute(
        self,
        state: _State,
        delta: GraphDelta,
        graph: Any,
        ids: Optional[List[int]],
        inputs: Optional[List[Any]],
        randomness: Optional[List[Any]],
        tracer: Optional[Tracer],
    ) -> SimReport:
        request = state.request
        if request.kind == "local" and request.rng is not None:
            raise GraphDeltaError(
                "apply() on a local-kind run requires seed-based randomness "
                "(an explicit rng object is stateful and cannot be replayed "
                "on the mutated graph); build the request with seed= instead"
            )
        new_request = replace(
            request, graph=graph, ids=ids, inputs=inputs, randomness=randomness
        )
        state.request = new_request
        report = self._rewrap(self._direct.run(new_request, tracer))
        changed = self._diff_outputs(state.outputs, report.outputs)
        if tracer is not None:
            tracer.on_event(
                "delta", engine=self.name, ops=len(delta.ops),
                footprint=graph.n, classes_invalidated=0,
                cache_survivors=0, changed_nodes=len(changed),
                csr_mode=delta.csr_mode,
            )
        report.changed_nodes = changed
        report.info["csr_mode"] = delta.csr_mode
        return report

    @staticmethod
    def _diff_outputs(old: Any, new: Any) -> List[int]:
        """Changed nodes between two output collections (recompute mode)."""
        if isinstance(new, dict):
            old = old if isinstance(old, dict) else {}
            touched_edges = (
                set(old) - set(new)
                | {e for e in new if e not in old or old[e] != new[e]}
            )
            return sorted({v for e in touched_edges for v in e})
        old_list = old if isinstance(old, list) else []
        return [
            v for v in range(len(new))
            if v >= len(old_list) or old_list[v] != new[v]
        ]
