"""The structured trace: one :class:`EventStream` with schema and sinks.

Components call ``emit(time, source, kind, detail)`` on an
:class:`EventStream`; a disabled stream (such as :data:`NULL_TRACE`, the
default everywhere) returns after one flag check, so paper-scale runs pay
almost nothing for tracing.  An enabled stream

* keeps events in an in-memory **keep-latest ring**: at capacity the
  oldest event is evicted, so the tail of a run — usually the interesting
  part — is always retained, and :attr:`EventStream.dropped` counts the
  evictions;
* checks each event against a **schema registry** of known
  ``source``/``kind`` pairs (see :data:`EVENT_SCHEMA`), so traces are
  diffable between runs: a strict stream rejects unregistered events
  instead of silently inventing new namespaces;
* offers every event to its **sinks**: :class:`JsonlSink` appends one JSON
  object per line to a file, the interchange format ``repro report``
  re-parses.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError


class TraceEvent(NamedTuple):
    """One traced occurrence.

    Attributes:
        time: simulated time the event occurred at.
        source: short component name (``"el"``, ``"flush"``, ``"gen0"``...).
        kind: event kind (``"forward"``, ``"kill"``, ``"block_write"``...).
        detail: free-form payload, usually a dict of identifiers.
    """

    time: float
    source: str
    kind: str
    detail: Any

    def to_dict(self) -> dict:
        """JSON-serialisable form (the JSONL line schema)."""
        return {
            "time": self.time,
            "source": self.source,
            "kind": self.kind,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(
            float(data["time"]),
            str(data["source"]),
            str(data["kind"]),
            data.get("detail"),
        )


#: Known event namespaces: source -> set of kinds.  Components register
#: their vocabulary here so ``repro report`` can flag schema drift and
#: tests can assert coverage.
EVENT_SCHEMA: Dict[str, set] = {
    # Ephemeral log manager hot paths.
    "el": {
        "forward",
        "recirculate",
        "demand_flush",
        "kill",
        "gap_ensure",
        "pressure",
        "emergency_recirculate",
    },
    # Firewall-specific occurrences (FW shares the EL machinery).
    "fw": {
        "forward",
        "recirculate",
        "demand_flush",
        "kill",
        "gap_ensure",
        "pressure",
        "emergency_recirculate",
        "space_reclaim",
    },
    # EL–FW hybrid (EL machinery plus whole-transaction moves).
    "hybrid": {
        "forward",
        "recirculate",
        "demand_flush",
        "kill",
        "gap_ensure",
        "pressure",
        "regenerate",
    },
    # Flush scheduler / database drives.
    "flush": {"submit", "complete", "demand", "settle"},
    # Log generations (block lifecycle).
    "log": {"block_write", "block_durable"},
    # Fault injection and self-healing (disk faults, remaps, crash checks).
    "fault": {
        "write_fault",
        "write_failed",
        "latent",
        "stabilise",
        "heal",
        "remap",
        "degrade",
        "ack_deferred",
        "flush_requeue",
        "crash_check",
    },
    # Sharded manager (cross-shard commit protocol).
    "shard": {"cross_commit"},
    # Harness lifecycle markers.
    "run": {"begin", "end"},
}


def register_event(source: str, kind: str) -> None:
    """Extend the schema (extensions and tests add their vocabulary here)."""
    EVENT_SCHEMA.setdefault(source, set()).add(kind)


def is_known_event(source: str, kind: str) -> bool:
    kinds = EVENT_SCHEMA.get(source)
    return kinds is not None and kind in kinds


class EventSink:
    """Interface for trace-event consumers attached to an :class:`EventStream`."""

    def accept(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; accepting after close is an error."""


class JsonlSink(EventSink):
    """Appends events to ``path`` as JSON Lines (one event per line).

    The file is opened lazily on the first event and is flushed/closed by
    :meth:`close`; a sink that never saw an event never creates the file.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._handle = None
        self.events_written = 0
        self.closed = False

    def accept(self, event: TraceEvent) -> None:
        if self.closed:
            raise ConfigurationError(f"jsonl sink {self.path} is closed")
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8")
        json.dump(event.to_dict(), self._handle, separators=(",", ":"))
        self._handle.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JsonlSink {self.path} written={self.events_written}>"


class EventStream:
    """An in-memory keep-latest trace that checks the schema and feeds sinks."""

    def __init__(
        self,
        enabled: bool = True,
        capacity: Optional[int] = None,
        sinks: Sequence[EventSink] = (),
        strict: bool = False,
    ):
        self.enabled = enabled
        self._capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.sinks: List[EventSink] = list(sinks)
        self.strict = strict
        #: (source, kind) pairs emitted that the schema does not know.
        self.unknown_events = 0

    @property
    def capacity(self) -> Optional[int]:
        """Maximum retained events, or ``None`` for unbounded."""
        return self._capacity

    def add_sink(self, sink: EventSink) -> EventSink:
        self.sinks.append(sink)
        return sink

    def emit(self, time: float, source: str, kind: str, detail: Any = None) -> None:
        """Record one event (no-op while :attr:`enabled` is false).

        The event is built once; the ring and every sink get that object.
        At capacity the *oldest* retained event is evicted.
        """
        if not self.enabled:
            return
        if not is_known_event(source, kind):
            if self.strict:
                raise ConfigurationError(
                    f"unregistered trace event {source!r}/{kind!r}; add it to "
                    f"repro.obs.events.EVENT_SCHEMA (register_event)"
                )
            self.unknown_events += 1
        event = TraceEvent(time, source, kind, detail)
        events = self._events
        if self._capacity is not None and len(events) == self._capacity:
            self.dropped += 1
        events.append(event)
        for sink in self.sinks:
            sink.accept(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def select(self, source: Optional[str] = None, kind: Optional[str] = None) -> List[TraceEvent]:
        """Events matching the given source and/or kind."""
        return [
            e
            for e in self._events
            if (source is None or e.source == source) and (kind is None or e.kind == kind)
        ]

    def clear(self) -> None:
        """Drop all recorded events (the ``enabled`` flag is unchanged)."""
        self._events.clear()
        self.dropped = 0

    def close(self) -> None:
        """Close every attached sink (idempotent per sink contract)."""
        for sink in self.sinks:
            sink.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<EventStream {state} events={len(self._events)} dropped={self.dropped}>"


#: A shared disabled stream components can default to.
NULL_TRACE = EventStream(enabled=False)


# ----------------------------------------------------------------------
# JSONL parsing and summarising (the ``repro report`` input side)
# ----------------------------------------------------------------------
def read_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Parse a JSONL trace file back into :class:`TraceEvent` objects."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                events.append(TraceEvent.from_dict(data))
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: malformed trace line ({exc})"
                ) from exc
    return events


def summarise_events(
    events: Iterable[TraceEvent],
) -> Dict[Tuple[str, str], int]:
    """Event counts keyed by ``(source, kind)``, insertion-ordered."""
    return dict(TallyCounter((e.source, e.kind) for e in events))


def event_time_span(events: Sequence[TraceEvent]) -> Tuple[float, float]:
    """(first, last) event time; ``(0.0, 0.0)`` for an empty trace."""
    if not events:
        return (0.0, 0.0)
    return (events[0].time, events[-1].time)
