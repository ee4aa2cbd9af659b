"""Running oriented-tree algorithms on finite oriented graphs.

The speedup engine studies algorithms as functions of *oriented tree
balls*.  To connect those objects to global failure probabilities on
finite networks (Claim 10's amplification, Lemma 9's endgame), this
module evaluates a :class:`~repro.speedup.algorithms.NodeAlgorithm` on
every node of a finite consistently-oriented graph: each node walks its
ball's direction words through the orientation and reads off the random
values it finds.

Soundness requires the graph to *locally look like* the oriented tree
up to the algorithm's radius: distinct ball words must reach distinct
nodes.  Tori satisfy this exactly for radius-1 algorithms (their moves
commute, so radius >= 2 words like RU/UR collide); the runner checks
injectivity per node and refuses unsound combinations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..graphs.graph import Graph
from ..graphs.orientation import Orientation
from ..instrumentation.tracer import Tracer, effective_tracer
from .algorithms import NodeAlgorithm
from .ball import Word

__all__ = [
    "FiniteRunResult",
    "resolve_ball_tables",
    "run_node_algorithm_on_oriented_graph",
    "estimate_global_success",
]


@dataclass
class FiniteRunResult:
    """One evaluation of a tree algorithm on a finite oriented graph."""

    outputs: List[object]
    failing_nodes: List[int]

    @property
    def succeeded(self) -> bool:
        """Whether the output is a (global) weak coloring."""
        return not self.failing_nodes


def _resolve(orientation: Orientation, start: int, word: Word) -> Optional[int]:
    """Follow a direction word from ``start``; None if a move is missing."""
    node = start
    for dim, sign in word:
        nxt = orientation.neighbor(node, dim, sign)
        if nxt is None:
            return None
        node = nxt
    return node


def resolve_ball_tables(
    alg: NodeAlgorithm, graph: Graph, orientation: Orientation
) -> List[List[int]]:
    """Per-node tables: the graph node each ball word reaches.

    Precompute once and pass to :func:`run_node_algorithm_on_oriented_graph`
    when running many trials on the same graph.  A node's cache key is
    its table projected through the trial's random values —
    :func:`~repro.local_model.cache.ball_assignment_key`, the same
    keying function the canonical-view cache builds on.

    Raises
    ------
    ValueError
        If some node's ball words do not reach pairwise-distinct nodes
        (the graph is not locally tree-like at the algorithm's radius),
        or a move leaves the oriented region.
    """
    tables: List[List[int]] = []
    for v in graph.nodes():
        resolved = []
        for word in alg.ball.words:
            node = _resolve(orientation, v, word)
            if node is None:
                raise ValueError(
                    f"node {v}: direction word {word} leaves the oriented region"
                )
            resolved.append(node)
        if len(set(resolved)) != len(resolved):
            raise ValueError(
                f"node {v}: ball words collide — the graph is not locally "
                f"tree-like at radius {alg.t}"
            )
        tables.append(resolved)
    return tables


def run_node_algorithm_on_oriented_graph(
    alg: NodeAlgorithm,
    graph: Graph,
    orientation: Orientation,
    values: Sequence[int],
    tables: Optional[List[List[int]]] = None,
    tracer: Optional[Tracer] = None,
) -> FiniteRunResult:
    """Evaluate ``alg`` at every node, given per-node random values.

    Parameters
    ----------
    values:
        One random value in ``[0, alg.values)`` per node — the graph's
        random-bit assignment.
    tables:
        Precomputed :func:`resolve_ball_tables` output (resolved and
        validated once per (algorithm, graph) instead of per call).
    tracer:
        Optional :class:`~repro.instrumentation.Tracer`; sees one
        ``view`` event per node (the resolved ball) plus run start/end.

    Raises
    ------
    ValueError
        Propagated from :func:`resolve_ball_tables` when the graph is
        not locally tree-like at the algorithm's radius.

    The evaluation loop lives behind the engine seam (the ``"finite"``
    request kind of :class:`~repro.core.direct.DirectEngine`); this
    entry point is a signature-stable adapter over
    :func:`repro.core.simulate`.
    """
    from ..core.direct import DirectEngine
    from ..core.engine import SimRequest

    report = DirectEngine().run(
        SimRequest(
            kind="finite",
            graph=graph,
            algorithm=alg,
            orientation=orientation,
            values=values,
            tables=tables,
        ),
        tracer=tracer,
    )
    return report.to_finite_result()


def _estimate_batched(
    alg: NodeAlgorithm,
    graph: Graph,
    trials: int,
    rng: random.Random,
    tables: List[List[int]],
    tracer: Optional[Tracer],
) -> Optional[float]:
    """The ``layout="kernel"`` trial batch; ``None`` declines to the loop.

    Draws all ``trials * n`` random values as one stream-faithful block
    (:func:`~repro.speedup.trial_kernel.draw_randrange_block` — same
    values, same final ``rng`` state as the scalar loop), evaluates
    every trial through the distinct-assignment kernel, and replays the
    scalar loop's ``trial`` event sequence from the per-trial failing
    counts.  Declines *before* touching ``rng``, so a declined batch
    leaves the scalar fallback bit-identical to a run that never tried.
    """
    from . import trial_kernel as tk

    n = graph.n
    if n > 0 and tk.encode_reason(alg.values, len(alg.ball.words)) is not None:
        return None
    if tracer is not None:
        tracer.on_event(
            "run_start", engine="finite", algorithm=alg.name, n=n, trials=trials
        )
    if n == 0:
        counts = np.zeros(trials, dtype=np.int64)
    else:
        matrix = tk.draw_randrange_block(
            rng, alg.values, trials * n
        ).reshape(trials, n)
        codes, _, _ = tk.assignment_codes(alg, matrix, tables)
        counts = tk.fail_counts(codes, *tk.arc_arrays(graph))
    successes = int((counts == 0).sum())
    if tracer is not None:
        for i, failing in enumerate(counts.tolist()):
            tracer.on_event(
                "trial", index=i, succeeded=failing == 0, failing_nodes=failing
            )
        tracer.on_event("run_end", rounds=alg.t)
    return successes / trials


def estimate_global_success(
    alg: NodeAlgorithm,
    graph: Graph,
    orientation: Orientation,
    trials: int,
    rng: Optional[random.Random] = None,
    tracer: Optional[Tracer] = None,
    layout: str = "auto",
) -> float:
    """Monte Carlo estimate of Pr[the whole graph is weakly colored].

    An optional ``tracer`` observes one ``trial`` event per trial.

    ``layout="kernel"`` runs all trials through the batched
    distinct-assignment kernel (:mod:`repro.speedup.trial_kernel`):
    the same success count, the same per-trial outcomes, the same
    ``trial`` event sequence, and the same final ``rng`` state as the
    scalar loop — proven by ``tests/test_speedup_kernels.py`` — at a
    fraction of the cost.  Unsupported algorithms decline back to the
    scalar loop before any randomness is drawn.  (The batch does not
    replay the *nested* per-trial run events a globally installed
    tracer would see from the scalar loop's inner engine runs.)
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = rng or random.Random(0)
    tables = resolve_ball_tables(alg, graph, orientation)
    tracer = effective_tracer(tracer)
    if layout == "kernel":
        estimate = _estimate_batched(alg, graph, trials, rng, tables, tracer)
        if estimate is not None:
            return estimate
    if tracer is not None:
        tracer.on_event(
            "run_start", engine="finite", algorithm=alg.name, n=graph.n, trials=trials
        )
    successes = 0
    for i in range(trials):
        values = [rng.randrange(alg.values) for _ in graph.nodes()]
        run = run_node_algorithm_on_oriented_graph(
            alg, graph, orientation, values, tables=tables
        )
        if run.succeeded:
            successes += 1
        if tracer is not None:
            tracer.on_event(
                "trial", index=i, succeeded=run.succeeded,
                failing_nodes=len(run.failing_nodes),
            )
    if tracer is not None:
        tracer.on_event("run_end", rounds=alg.t)
    return successes / trials
