"""Tests for the structured event pipeline: ring, schema, sinks, JSONL export."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs import ObsConfig, Observability
from repro.obs.events import (
    EVENT_SCHEMA,
    NULL_TRACE,
    EventSink,
    EventStream,
    JsonlSink,
    TraceEvent,
    event_time_span,
    is_known_event,
    read_jsonl,
    register_event,
    summarise_events,
)


class ListSink(EventSink):
    """Collects every event it is offered."""

    def __init__(self):
        self.events = []

    def accept(self, event):
        self.events.append(event)


class TestSchema:
    def test_hot_path_kinds_are_registered(self):
        for kind in ("forward", "recirculate", "demand_flush", "kill", "gap_ensure"):
            assert is_known_event("el", kind)
        assert is_known_event("fw", "space_reclaim")
        assert is_known_event("log", "block_write")
        assert is_known_event("run", "begin")

    def test_register_event_extends_schema(self):
        register_event("test_ns", "custom")
        try:
            assert is_known_event("test_ns", "custom")
        finally:
            EVENT_SCHEMA.pop("test_ns", None)

    def test_unknown_events_counted_when_lenient(self):
        stream = EventStream()
        stream.emit(0.0, "nonsense", "whatever")
        assert stream.unknown_events == 1
        assert len(stream) == 1  # still recorded

    def test_strict_stream_rejects_unknown_events(self):
        stream = EventStream(strict=True)
        with pytest.raises(ConfigurationError):
            stream.emit(0.0, "nonsense", "whatever")
        stream.emit(0.0, "el", "kill", {"tid": 1})  # known: fine


class TestEventStream:
    def test_emit_and_iterate(self):
        trace = EventStream()
        trace.emit(1.0, "lm", "kill", {"tid": 3})
        events = list(trace)
        assert len(events) == 1
        assert events[0].time == 1.0
        assert events[0].detail == {"tid": 3}

    def test_disabled_trace_records_nothing(self):
        trace = EventStream(enabled=False)
        trace.emit(1.0, "lm", "kill")
        assert len(trace) == 0

    def test_null_trace_is_disabled(self):
        NULL_TRACE.emit(0.0, "x", "y")
        assert not NULL_TRACE.enabled
        assert len(NULL_TRACE) == 0

    def test_select_by_source(self):
        trace = EventStream()
        trace.emit(1.0, "a", "k1")
        trace.emit(2.0, "b", "k1")
        assert len(trace.select(source="a")) == 1

    def test_select_by_kind(self):
        trace = EventStream()
        trace.emit(1.0, "a", "k1")
        trace.emit(2.0, "a", "k2")
        assert [e.kind for e in trace.select(kind="k2")] == ["k2"]

    def test_select_combined(self):
        trace = EventStream()
        trace.emit(1.0, "a", "k1")
        trace.emit(2.0, "a", "k2")
        trace.emit(3.0, "b", "k2")
        assert len(trace.select(source="a", kind="k2")) == 1

    def test_capacity_keeps_latest(self):
        # A bounded stream is a keep-latest ring: the tail of the run survives.
        trace = EventStream(capacity=2)
        for i in range(5):
            trace.emit(float(i), "s", "k")
        assert len(trace) == 2
        assert trace.dropped == 3
        assert [e.time for e in trace] == [3.0, 4.0]

    def test_capacity_property(self):
        assert EventStream(capacity=7).capacity == 7
        assert EventStream().capacity is None

    def test_unbounded_log_never_drops(self):
        trace = EventStream()
        for i in range(1000):
            trace.emit(float(i), "s", "k")
        assert len(trace) == 1000
        assert trace.dropped == 0
        assert [e.time for e in trace][:2] == [0.0, 1.0]

    def test_event_dict_round_trip(self):
        event = TraceEvent(1.5, "el", "forward", {"lsn": 9})
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_clear(self):
        trace = EventStream(capacity=1)
        trace.emit(0.0, "s", "k")
        trace.emit(1.0, "s", "k")
        trace.clear()
        assert len(trace) == 0
        assert trace.dropped == 0

    def test_disabled_stream_feeds_no_sinks(self):
        sink = ListSink()
        stream = EventStream(enabled=False, sinks=[sink])
        stream.emit(0.0, "el", "kill")
        assert len(stream) == 0
        assert sink.events == []

    def test_events_fan_out_to_all_sinks(self):
        a, b = ListSink(), ListSink()
        stream = EventStream(sinks=[a])
        stream.add_sink(b)
        stream.emit(1.0, "el", "forward")
        assert len(a.events) == 1 and len(b.events) == 1

    def test_ring_and_sinks_share_one_event(self):
        sink = ListSink()
        stream = EventStream(capacity=1, sinks=[sink])
        stream.emit(1.0, "el", "forward", {"lsn": 1})
        assert sink.events[0] is list(stream)[0]


class TestTraceCapacity:
    def test_zero_capacity_stream_still_feeds_sinks(self):
        # The ring keeps nothing, but every event still reaches the sinks.
        sink = ListSink()
        stream = EventStream(capacity=0, sinks=[sink])
        stream.emit(1.0, "el", "forward")
        stream.emit(2.0, "el", "kill")
        assert len(stream) == 0
        assert [e.time for e in sink.events] == [1.0, 2.0]

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_obs_config_rejects_capacity_below_one(self, capacity, tmp_path):
        with pytest.raises(ConfigurationError, match="trace_capacity"):
            ObsConfig(
                trace=True,
                trace_capacity=capacity,
                jsonl_path=str(tmp_path / "t.jsonl"),
            )

    def test_obs_config_accepts_unbounded_and_positive_capacity(self):
        assert Observability(ObsConfig(trace=True)).trace.capacity is None
        assert Observability(ObsConfig(trace=True, trace_capacity=1)).trace.capacity == 1


class TestJsonlSink:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        events = [
            TraceEvent(0.5, "el", "forward", {"lsn": 1, "from": 0}),
            TraceEvent(1.0, "el", "kill", {"tid": 7}),
        ]
        for event in events:
            sink.accept(event)
        sink.close()
        assert sink.events_written == 2
        assert read_jsonl(path) == events

    def test_lazy_open_never_creates_empty_file(self, tmp_path):
        path = tmp_path / "never.jsonl"
        JsonlSink(path).close()
        assert not path.exists()

    def test_accept_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.accept(TraceEvent(0.0, "el", "kill", None))
        sink.close()
        with pytest.raises(ConfigurationError):
            sink.accept(TraceEvent(1.0, "el", "kill", None))

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 0, "source": "a", "kind": "b"}\nnot json\n')
        with pytest.raises(ConfigurationError, match="bad.jsonl:2"):
            read_jsonl(path)


class TestSummaries:
    def test_summarise_events_counts_pairs(self):
        events = [
            TraceEvent(0.0, "el", "forward", None),
            TraceEvent(1.0, "el", "forward", None),
            TraceEvent(2.0, "el", "kill", None),
        ]
        assert summarise_events(events) == {
            ("el", "forward"): 2,
            ("el", "kill"): 1,
        }

    def test_event_time_span(self):
        events = [TraceEvent(0.5, "a", "b", None), TraceEvent(9.0, "a", "b", None)]
        assert event_time_span(events) == (0.5, 9.0)
        assert event_time_span([]) == (0.0, 0.0)
