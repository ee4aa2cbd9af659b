"""Aggregating tracer: per-round message/byte/halt/wall-clock metrics.

:class:`MetricsTracer` folds the engine's event stream into a compact
:class:`RunMetrics` summary — the object the parallel experiment runner
serializes into its JSON artifacts.  It keeps O(rounds) state, not
O(messages): each message updates a handful of counters.

The metrics schema (``RunMetrics.to_dict``) is documented in
``docs/OBSERVABILITY.md`` and is covered by a JSON round-trip test, so
downstream consumers can treat it as stable.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional

from .sizes import SizeEstimator, estimate_size
from .tracer import Tracer

__all__ = ["RoundMetrics", "RunMetrics", "MetricsTracer"]


@dataclass
class RoundMetrics:
    """Counters for one synchronous round."""

    round: int
    active: int
    messages_sent: int = 0
    messages_delivered: int = 0
    bits_sent: int = 0
    halts: int = 0
    wall_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class RunMetrics:
    """The whole run, aggregated.

    ``halt_histogram`` maps halting round -> number of nodes that halted
    in that round (key 0 = halted during ``init``, before any
    communication).  View engines populate ``views_gathered`` /
    ``view_nodes`` / ``view_edges`` instead of the message counters;
    the finite runner populates ``trials`` / ``trial_successes``.
    Memoizing engines (the cached view engines, the finite runner's
    ball tables) populate the ``cache_*`` counters — one lookup per
    computing entity, each a hit or a miss; ``cache_hit_rate`` is the
    fraction served from the cache.  Kernel-layout runs populate the
    ``kernel_*`` counters (``kernel_vectorized`` + ``kernel_fallbacks``
    == ``kernel_runs``), one per ``kernel`` event.  The sharded engine
    populates ``shards`` and, when it falls back to an in-process path,
    ``degradations`` / ``degraded_reasons`` (``degraded`` events); its
    batch runs fold each worker-side request's counters back in through
    ``subrun`` events, incrementing ``subruns`` once per folded request.
    The incremental engine populates the ``delta_*`` counters, one
    ``delta`` event per applied :class:`~repro.graphs.delta.GraphDelta`:
    dirty-footprint size, classes evaluated fresh vs served from the
    memo, and entities whose class actually changed.  The service engine
    populates the ``service_*`` counters, one ``service`` event per
    served request: whether the request's algorithm and graph found
    warm cross-request entries, how many whole tables the LRU sweep
    evicted, and — ``service_bytes``, a snapshot rather than a sum —
    the current estimated footprint of all live class tables.
    """

    engine: str = ""
    algorithm: str = ""
    n: int = 0
    rounds: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    bits_sent: int = 0
    views_gathered: int = 0
    view_nodes: int = 0
    view_edges: int = 0
    trials: int = 0
    trial_successes: int = 0
    cache_lookups: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes: int = 0
    cache_distinct_classes: int = 0
    layout_dict_runs: int = 0
    layout_csr_runs: int = 0
    layout_kernel_runs: int = 0
    layout_fallbacks: int = 0
    layout_entities: int = 0
    layout_classes: int = 0
    kernel_runs: int = 0
    kernel_vectorized: int = 0
    kernel_fallbacks: int = 0
    kernel_entities: int = 0
    kernel_classes: int = 0
    delta_applies: int = 0
    delta_footprint: int = 0
    delta_classes_invalidated: int = 0
    delta_cache_survivors: int = 0
    delta_changed_nodes: int = 0
    service_requests: int = 0
    service_table_hits: int = 0
    service_table_misses: int = 0
    service_graph_hits: int = 0
    service_graph_misses: int = 0
    service_evictions: int = 0
    service_bytes: int = 0
    subruns: int = 0
    shards: int = 0
    degradations: int = 0
    degraded_reasons: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    halt_histogram: Dict[int, int] = field(default_factory=dict)
    per_round: List[RoundMetrics] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit (0.0 when no cache ran)."""
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (the artifact ``metrics`` schema): every field
        in declaration order, with the derived ``cache_hit_rate`` right
        after the ``cache_*`` counters it is computed from."""
        data: Dict[str, Any] = {}
        for f in fields(self):
            data[f.name] = getattr(self, f.name)
            if f.name == "cache_distinct_classes":
                data["cache_hit_rate"] = self.cache_hit_rate
        data["degraded_reasons"] = list(self.degraded_reasons)
        # JSON objects have string keys; keep them sorted for diffs.
        data["halt_histogram"] = {
            str(k): self.halt_histogram[k] for k in sorted(self.halt_histogram)
        }
        data["per_round"] = [r.to_dict() for r in self.per_round]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunMetrics":
        """Inverse of :meth:`to_dict` (artifact consumers' entry point).

        Forward- and backward-compatible by construction: counters the
        artifact lacks fall back to the dataclass defaults (pre-cache
        artifacts load with zero ``cache_*`` counters), and keys this
        version does not know — an artifact written by a *newer* version
        — are ignored rather than rejected.  Derived values such as
        ``cache_hit_rate`` are recomputed, never read back.
        """
        kwargs = _known_fields(cls, data)
        kwargs["halt_histogram"] = {
            int(k): v for k, v in data.get("halt_histogram", {}).items()
        }
        kwargs["per_round"] = [
            RoundMetrics(**_known_fields(RoundMetrics, r))
            for r in data.get("per_round", [])
        ]
        return cls(**kwargs)


def _known_fields(cls: type, data: Dict[str, Any]) -> Dict[str, Any]:
    """The entries of ``data`` that name a field of dataclass ``cls``."""
    known = {f.name for f in fields(cls)}
    return {k: v for k, v in data.items() if k in known}


#: Counters a ``subrun`` event folds additively from a worker's
#: metrics: every ``int`` field except the run's own size (``n``,
#: ``rounds``), the parent's fan-out bookkeeping (``subruns``,
#: ``shards``), and the ``service_bytes`` snapshot.
_SUBRUN_COUNTERS = tuple(
    f.name for f in fields(RunMetrics)
    if f.type in (int, "int")
    and f.name not in {"n", "rounds", "subruns", "shards", "service_bytes"}
)


class MetricsTracer(Tracer):
    """Fold the event stream into :class:`RunMetrics`.

    Parameters
    ----------
    message_size:
        Pluggable payload-size estimator (bits); defaults to
        :func:`~repro.instrumentation.sizes.estimate_size`.
    per_round:
        Keep the per-round breakdown (O(rounds) memory).  Disable for
        very long runs where only totals matter.
    clock:
        Injectable monotonic clock, for deterministic tests.

    One tracer instance observes one run at a time; a ``run_start``
    event resets it, so reusing an instance across sequential runs
    keeps only the last run's numbers.
    """

    def __init__(
        self,
        message_size: Optional[SizeEstimator] = None,
        per_round: bool = True,
        clock=time.perf_counter,
    ):
        self.message_size: SizeEstimator = message_size or estimate_size
        self.keep_per_round = per_round
        self.clock = clock
        self.metrics = RunMetrics()
        self._round: Optional[RoundMetrics] = None
        self._round_started_at = 0.0
        self._run_started_at = 0.0

    def on_event(
        self,
        name: str,
        /,
        sender: Any = None,
        receiver: Any = None,
        port: Any = None,
        payload: Any = None,
        delivered: bool = False,
        **attrs: Any,
    ) -> None:
        """Fold one event through its ``_fold_<name>`` method, if any.

        ``message`` — one per sent message, inside the round loop — is
        folded right here instead: its attributes bind to the parameters
        above, so a message builds no ``attrs`` dict, which would
        otherwise be most of its tracing cost.  No other event has
        attributes of those names.
        """
        if name == "message":
            bits = self.message_size(payload)
            m = self.metrics
            m.messages_sent += 1
            m.bits_sent += bits
            if delivered:
                m.messages_delivered += 1
            r = self._round
            if r is not None:
                r.messages_sent += 1
                r.bits_sent += bits
                if delivered:
                    r.messages_delivered += 1
            return
        fold = _FOLDS.get(name)
        if fold is not None:
            fold(self, attrs)

    def _add(self, prefix: str, attrs: Dict[str, Any], *keys: str) -> None:
        """``metrics.<prefix><key> += attrs[key]`` for each key present."""
        m = self.metrics
        for key in keys:
            name = prefix + key
            setattr(m, name, getattr(m, name) + attrs.get(key, 0))

    # -- folds of the other events, one per name --------------------------
    def _fold_run_start(self, a: Dict[str, Any]) -> None:
        self.metrics = RunMetrics(engine=a["engine"], algorithm=a["algorithm"], n=a["n"])
        self._round = None
        self._run_started_at = self.clock()

    def _fold_round_start(self, a: Dict[str, Any]) -> None:
        self._round = RoundMetrics(round=a["round"], active=a["active"])
        self._round_started_at = self.clock()

    def _fold_halt(self, a: Dict[str, Any]) -> None:
        round_number = a["round"]
        hist = self.metrics.halt_histogram
        hist[round_number] = hist.get(round_number, 0) + 1
        if self._round is not None and self._round.round == round_number:
            self._round.halts += 1

    def _fold_round_end(self, a: Dict[str, Any]) -> None:
        if self._round is None:
            return
        self._round.wall_seconds = self.clock() - self._round_started_at
        if self.keep_per_round:
            self.metrics.per_round.append(self._round)
        self._round = None

    def _fold_view(self, a: Dict[str, Any]) -> None:
        m = self.metrics
        m.views_gathered += 1
        m.view_nodes += a["nodes"]
        m.view_edges += a["edges"]

    def _fold_layout(self, a: Dict[str, Any]) -> None:
        m = self.metrics
        if a["layout"] == "dict":
            m.layout_dict_runs += 1
        elif a["layout"] == "kernel":
            m.layout_kernel_runs += 1
        else:
            m.layout_csr_runs += 1
        if a.get("path") == "python":
            m.layout_fallbacks += 1
        self._add("layout_", a, "entities", "classes")

    def _fold_kernel(self, a: Dict[str, Any]) -> None:
        m = self.metrics
        m.kernel_runs += 1
        if a.get("path") == "vectorized":
            m.kernel_vectorized += 1
        else:
            m.kernel_fallbacks += 1
        self._add("kernel_", a, "entities", "classes")

    def _fold_cache(self, a: Dict[str, Any]) -> None:
        self._add("cache_", a, "lookups", "hits", "misses", "bytes", "distinct_classes")

    def _fold_service(self, a: Dict[str, Any]) -> None:
        self._add(
            "service_", a, "requests", "table_hits", "table_misses",
            "graph_hits", "graph_misses", "evictions",
        )
        # A snapshot of the live footprint, not an additive counter.
        self.metrics.service_bytes = a.get("bytes", self.metrics.service_bytes)

    def _fold_delta(self, a: Dict[str, Any]) -> None:
        self.metrics.delta_applies += 1
        self._add(
            "delta_", a, "footprint", "classes_invalidated", "cache_survivors",
            "changed_nodes",
        )

    def _fold_shard(self, a: Dict[str, Any]) -> None:
        self.metrics.shards += 1

    def _fold_degraded(self, a: Dict[str, Any]) -> None:
        self.metrics.degradations += 1
        self.metrics.degraded_reasons.append(a["reason"])

    def _fold_subrun(self, a: Dict[str, Any]) -> None:
        self.metrics.subruns += 1
        self._add("", a["metrics"], *_SUBRUN_COUNTERS)
        self.metrics.degraded_reasons.extend(a["metrics"].get("degraded_reasons", ()))

    def _fold_trial(self, a: Dict[str, Any]) -> None:
        self.metrics.trials += 1
        if a["succeeded"]:
            self.metrics.trial_successes += 1

    def _fold_run_end(self, a: Dict[str, Any]) -> None:
        self.metrics.rounds = a["rounds"]
        self.metrics.wall_seconds = self.clock() - self._run_started_at

    # -- conveniences ---------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """The JSON-ready metrics dict of the last observed run."""
        return self.metrics.to_dict()


#: Event name -> fold: the ``MetricsTracer._fold_<name>`` methods.
_FOLDS = {
    name[len("_fold_"):]: fold
    for name, fold in vars(MetricsTracer).items()
    if name.startswith("_fold_")
}
