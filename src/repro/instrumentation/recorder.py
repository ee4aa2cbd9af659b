"""Full-fidelity event log: every engine event, in order, exportable.

Where :class:`~repro.instrumentation.metrics.MetricsTracer` aggregates,
:class:`TraceRecorder` *remembers*: each engine event appends one
:class:`TraceEvent` with a monotonically increasing sequence number.
The log exports to JSON (one array) or JSONL (one event per line — the
format ``docs/ENGINE.md`` walks through), and loads back for assertion
or replay.

Payload/output values are stored as-is in memory; export passes them
through :func:`jsonable`, which falls back to ``repr`` for anything the
``json`` module cannot encode, so exporting never raises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .sizes import SizeEstimator, estimate_size
from .tracer import Tracer

__all__ = ["TraceEvent", "TraceRecorder", "jsonable"]


def jsonable(value: Any) -> Any:
    """``value`` coerced to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(x) for x in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return repr(value)


@dataclass
class TraceEvent:
    """One recorded event: ``kind`` is the event name, ``data`` its
    attributes."""

    seq: int
    kind: str
    data: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """The export form.  An attribute that shares a name with the
        envelope (the ``service`` event's request ``kind``) is exported
        prefixed with the event name (``service_kind``), so ``kind``
        always names the event."""
        data = {
            f"{self.kind}_{k}" if k in ("seq", "kind") else k: v
            for k, v in self.data.items()
        }
        return {"seq": self.seq, "kind": self.kind, **jsonable(data)}


class TraceRecorder(Tracer):
    """Record the complete event stream of one (or more) runs.

    Parameters
    ----------
    record_payloads:
        Store message payloads and halt outputs in the events.  Disable
        to trace message *flow* on runs with bulky payloads.
    message_size:
        Estimator used to annotate each message event with ``bits``.
    """

    def __init__(
        self,
        record_payloads: bool = True,
        message_size: Optional[SizeEstimator] = None,
    ):
        self.record_payloads = record_payloads
        self.message_size: SizeEstimator = message_size or estimate_size
        self.events: List[TraceEvent] = []

    def on_event(self, name: str, /, **attrs: Any) -> None:
        if name == "message":
            # Annotate with the payload's size, ahead of ``delivered``.
            payload = attrs.pop("payload")
            attrs["bits"] = self.message_size(payload)
            attrs["delivered"] = attrs.pop("delivered")
            if self.record_payloads:
                attrs["payload"] = payload
        elif name == "halt" and not self.record_payloads:
            del attrs["output"]
        self.events.append(TraceEvent(seq=len(self.events), kind=name, data=attrs))

    # -- querying -------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def clear(self) -> None:
        """Drop all recorded events (sequence numbers restart at 0)."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    # -- export ---------------------------------------------------------
    def to_json(self, indent: Optional[int] = None) -> str:
        """The whole log as one JSON array."""
        return json.dumps([e.to_dict() for e in self.events], indent=indent)

    def to_jsonl(self) -> str:
        """The log as JSON Lines: one compact event per line."""
        return "\n".join(
            json.dumps(e.to_dict(), separators=(",", ":")) for e in self.events
        )

    def save(self, path: str, jsonl: bool = True) -> None:
        """Write the log to ``path`` (JSONL by default)."""
        text = self.to_jsonl() if jsonl else self.to_json(indent=2)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    @staticmethod
    def load_events(text: str) -> List[Dict[str, Any]]:
        """Parse a :meth:`to_json` or :meth:`to_jsonl` export back into
        dicts (payloads stay in their JSON-coerced form)."""
        stripped = text.strip()
        if not stripped:
            return []
        if stripped.startswith("["):
            return json.loads(stripped)
        return [json.loads(line) for line in stripped.splitlines() if line.strip()]
