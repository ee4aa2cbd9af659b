"""In-memory spans around the public entry points of the repro layers.

The benchmark never edits the program: :func:`instrument` wraps public
functions and methods from the outside, after the modules are imported,
and every wrapped call records one span (name, start, end, parent span,
request id) in a :class:`Recorder`.  Spans stay in memory until the run
ends; :meth:`Recorder.dump` then writes them as JSON lines.

Aggregation (:func:`layer_totals`) turns spans into per-layer totals:
a layer's time is its *self* time, the span's duration minus the part
of it covered by child spans, and its call count counts only spans with
no ancestor of the same name (so a wrapped function that calls another
wrapped function of its own layer is one call).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: One span: (id, name, start, end, parent id or -1, request id).
Span = Tuple[int, str, float, float, int, str]

class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: Speedup algorithms seen by the wrappers, by ``id`` (their memo
        #: counters give the evaluator-call metrics).
        self.algorithms: Dict[int, Any] = {}

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        request_id: Optional[str] = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (-1, "")
        rid = inherited if request_id is None else request_id
        span_id = next(self._ids)
        stack.append((span_id, rid))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, rid))

    def dump(self, path: str) -> None:
        """Write every span as one JSON line to ``path``."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load_spans(path: str) -> List[Span]:
    """Read spans written by :meth:`Recorder.dump`."""
    with open(path, encoding="utf-8") as source:
        return [tuple(json.loads(line)) for line in source if line.strip()]


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _replace_everywhere(original: Any, wrapper: Any) -> None:
    """Point every loaded ``repro`` module attribute bound to ``original``
    at ``wrapper`` (modules bind imported functions by name)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_function(recorder: Recorder, module: Any, attr: str, span: str,
                   on_call: Optional[Callable[..., None]] = None) -> None:
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if on_call is not None:
            on_call(args, kwargs)
        result = recorder.call(span, original, args, kwargs)
        if on_call is not None:
            on_call((result,), {})
        return result

    _replace_everywhere(original, wrapper)


def _wrap_method(recorder: Recorder, cls: type, attr: str,
                 span: Callable[[Any], str],
                 request_id: Optional[Callable[..., Optional[str]]] = None) -> None:
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        rid = request_id(*args) if request_id is not None else None
        return recorder.call(span(self), original, (self,) + args, kwargs, rid)

    setattr(cls, attr, wrapper)


def _subclasses(root: type) -> Iterable[type]:
    seen = {root}
    todo = [root]
    while todo:
        cls = todo.pop()
        yield cls
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)


def _request_label(request: Any = None, *_: Any) -> Optional[str]:
    label = getattr(request, "label", None)
    return label or None


def _batch_labels(requests: Any = None, *_: Any) -> Optional[str]:
    try:
        return ",".join(str(r.label) for r in requests) or None
    except TypeError:
        return None


def instrument(recorder: Recorder) -> None:
    """Wrap the public entry point of each layer (call once per process)."""
    # Import every module that defines a wrapped class or binds a wrapped
    # function by name first, so all subclasses and bindings are found.
    for module in ("repro.core.direct", "repro.core.incremental",
                   "repro.core.service", "repro.core.sharded", "repro.experiments",
                   "repro.lcl", "repro.serve.protocol", "repro.speedup"):
        importlib.import_module(module)
    import repro.core.registry as registry
    import repro.graphs.generators as generators
    import repro.lowerbounds.linial as linial
    import repro.speedup.failure as failure
    import repro.speedup.transform as transform
    from repro.core.engine import Engine
    from repro.lcl.problem import EdgeLCL, NodeLCL
    from repro.local_model.batch_views import BatchBallExpander

    _wrap_function(recorder, linial, "is_c_colorable", "lowerbounds.is_c_colorable")
    _wrap_function(recorder, registry, "build_graph", "graphs.build")
    for name in generators.__all__:
        _wrap_function(recorder, generators, name, "graphs.build")

    def remember(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> None:
        for value in itertools.chain(args, kwargs.values()):
            if hasattr(value, "cache") and hasattr(value, "evaluate"):
                recorder.algorithms.setdefault(id(value), value)

    _wrap_function(recorder, failure, "node_local_failure",
                   "speedup.node_local_failure", remember)
    _wrap_function(recorder, failure, "edge_local_failure",
                   "speedup.edge_local_failure", remember)
    _wrap_function(recorder, transform, "first_speedup", "speedup.transform", remember)
    _wrap_function(recorder, transform, "second_speedup", "speedup.transform", remember)

    for root in (NodeLCL, EdgeLCL):
        for cls in _subclasses(root):
            if "verify" in cls.__dict__:
                _wrap_method(recorder, cls, "verify", lambda self: "lcl.verify")
    for cls in _subclasses(BatchBallExpander):
        for attr in ("node_classes_many", "edge_classes"):
            if attr in cls.__dict__:
                _wrap_method(recorder, cls, attr,
                             lambda self: "local_model.partition")
    for cls in _subclasses(Engine):
        if "run" in cls.__dict__:
            _wrap_method(recorder, cls, "run",
                         lambda self: f"core.run.{self.name}", _request_label)
        if "run_many" in cls.__dict__:
            _wrap_method(recorder, cls, "run_many",
                         lambda self: f"core.run_many.{self.name}", _batch_labels)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the union of its children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _, start, end, _, _ in spans:
        inner = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(span_id, ())
            if hi > start and lo < end
        ]
        result[span_id] = (end - start) - covered(inner)
    return result


def outermost(spans: List[Span], name: str) -> List[Span]:
    """Spans called ``name`` that have no ancestor called ``name``."""
    by_id = {span[0]: span for span in spans}
    result = []
    for span in spans:
        if span[1] != name:
            continue
        parent = by_id.get(span[4])
        while parent is not None and parent[1] != name:
            parent = by_id.get(parent[4])
        if parent is None:
            result.append(span)
    return result


def layer_totals(spans: List[Span]) -> Dict[str, Tuple[float, int]]:
    """``name -> (total self seconds, outermost calls)`` over ``spans``."""
    own = self_times(spans)
    totals: Dict[str, Tuple[float, int]] = {}
    names = {span[1] for span in spans}
    for name in names:
        seconds = sum(own[s[0]] for s in spans if s[1] == name)
        calls = len(outermost(spans, name))
        totals[name] = (seconds, calls)
    return totals
