"""Unit tests for the observability recorder primitives."""

import json

import pytest

from repro.obs import (
    NULL_RECORDER,
    JsonlSink,
    NullRecorder,
    Recorder,
    normalize_events,
    read_events,
)


class TestCounters:
    def test_count_accumulates(self):
        rec = Recorder()
        rec.count("a")
        rec.count("a", 4)
        rec.count("b", -2)
        assert rec.counters == {"a": 5, "b": -2}

    def test_gauge_keeps_latest(self):
        rec = Recorder()
        rec.gauge("depth", 3)
        rec.gauge("depth", 7)
        assert rec.gauges == {"depth": 7}


class TestEvents:
    def test_events_get_monotonic_seq(self):
        rec = Recorder()
        rec.event("one", x=1)
        rec.event("two", y=[2, 3])
        assert rec.events == [
            {"seq": 1, "ev": "one", "x": 1},
            {"seq": 2, "ev": "two", "y": [2, 3]},
        ]

    def test_keep_events_false_drops_memory_copy(self):
        rec = Recorder(keep_events=False)
        rec.event("one")
        assert rec.events == []


class TestSpans:
    def test_span_aggregates_and_emits_event(self):
        ticks = iter([10, 25, 100, 140])
        rec = Recorder()
        rec._clock = lambda: next(ticks)
        with rec.span("work", epoch=0):
            pass
        with rec.span("work", epoch=1):
            pass
        assert rec.spans == {"work": [2, 55, 40]}  # count, total, max
        assert rec.events == [
            {"seq": 1, "ev": "work", "epoch": 0, "dur_ns": 15},
            {"seq": 2, "ev": "work", "epoch": 1, "dur_ns": 40},
        ]

    def test_snapshot_shape(self):
        ticks = iter([0, 7])
        rec = Recorder()
        rec._clock = lambda: next(ticks)
        rec.count("c", 2)
        rec.gauge("g", 1.5)
        with rec.span("s"):
            pass
        assert rec.snapshot() == {
            "counters": {"c": 2},
            "gauges": {"g": 1.5},
            "spans": {"s": {"count": 1, "total_ns": 7, "max_ns": 7}},
        }


class TestJsonlSink:
    def test_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with Recorder(sink=JsonlSink.open(path)) as rec:
            rec.event("alpha", n=1)
            rec.event("error", ref=[0, 3], wing=None)
        assert read_events(path) == rec.events

    def test_open_raises_up_front(self, tmp_path):
        with pytest.raises(OSError):
            JsonlSink.open(str(tmp_path / "no" / "dir" / "x.jsonl"))

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink.open(str(tmp_path / "e.jsonl"))
        sink.close()
        sink.close()
        sink.write({"ev": "dropped"})  # no-op after close, no error

    def test_events_are_one_json_object_per_line(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        with Recorder(sink=JsonlSink.open(path)) as rec:
            rec.event("a")
            rec.event("b")
        lines = [
            line
            for line in open(path).read().splitlines()
            if line.strip()
        ]
        assert len(lines) == 2
        for line in lines:
            assert isinstance(json.loads(line), dict)


class TestNullRecorder:
    def test_everything_is_a_noop(self):
        rec = NullRecorder()
        rec.count("a")
        rec.gauge("g", 1)
        rec.event("e", x=1)
        with rec.span("s", y=2):
            pass
        assert rec.counters == {}
        assert rec.gauges == {}
        assert rec.spans == {}
        assert rec.events == []

    def test_disabled_flag(self):
        assert NULL_RECORDER.enabled is False
        assert Recorder().enabled is True


class TestNormalizeEvents:
    def test_strips_wall_clock_drops_backend_renumbers(self):
        events = [
            {"seq": 1, "ev": "pass.first", "epoch": 0, "dur_ns": 123},
            {"seq": 2, "ev": "backend.task.submit", "task": 0},
            {"seq": 3, "ev": "backend.task.complete", "task": 0,
             "dur_ns": 9},
            {"seq": 4, "ev": "error", "location": 5, "t_ns": 77},
            {"seq": 5, "ev": "resilience.retry", "task": 0},
        ]
        assert normalize_events(events) == [
            {"ev": "pass.first", "epoch": 0, "seq": 1},
            {"ev": "error", "location": 5, "seq": 2},
        ]
