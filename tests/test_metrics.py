"""Tests for the metrics/tracing layer."""

from __future__ import annotations

import json
import time

from repro.metrics import MetricsRegistry, TimerStats


class TestCounters:
    def test_increment_and_read(self):
        m = MetricsRegistry()
        m.increment("a")
        m.increment("a", 2)
        assert m.get_counter("a") == 3
        assert m.get_counter("missing") == 0

    def test_zero_increment_registers(self):
        m = MetricsRegistry()
        m.increment("a", 0)
        assert "a" in m.snapshot()["counters"]


class TestTimers:
    def test_observe_aggregates(self):
        m = MetricsRegistry()
        for s in (0.1, 0.3, 0.2):
            m.observe("t", s)
        stats = m.snapshot()["timers"]["t"]
        assert stats["count"] == 3
        assert stats["total"] == 0.6000000000000001
        assert stats["min"] == 0.1
        assert stats["max"] == 0.3
        assert abs(stats["mean"] - 0.2) < 1e-12

    def test_context_manager_records_elapsed(self):
        m = MetricsRegistry()
        with m.timer("work"):
            time.sleep(0.01)
        stats = m.snapshot()["timers"]["work"]
        assert stats["count"] == 1
        assert stats["total"] >= 0.01

    def test_timer_records_on_exception(self):
        m = MetricsRegistry()
        try:
            with m.timer("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert m.snapshot()["timers"]["boom"]["count"] == 1

    def test_empty_timer_stats(self):
        assert TimerStats().mean == 0.0
        assert TimerStats().to_dict()["min"] == 0.0


class TestEventsAndChunks:
    def test_event_fields_preserved(self):
        m = MetricsRegistry()
        m.event("retry", chunk=3, error="boom")
        (event,) = m.events
        assert event["kind"] == "retry"
        assert event["chunk"] == 3
        assert "time" in event

    def test_chunk_records(self):
        m = MetricsRegistry()
        m.record_chunk(index=0, trials=5, seconds=0.5, source="pool")
        (chunk,) = m.chunks
        assert chunk == {
            "index": 0, "trials": 5, "seconds": 0.5, "source": "pool",
        }

    def test_reads_return_copies(self):
        m = MetricsRegistry()
        m.event("x")
        m.events[0]["kind"] = "mutated"
        assert m.events[0]["kind"] == "x"


class TestExport:
    def test_save_round_trips(self, tmp_path):
        m = MetricsRegistry()
        m.increment("runs")
        m.observe("t", 1.5)
        m.event("done")
        path = tmp_path / "metrics.json"
        m.save(path)
        data = json.loads(path.read_text())
        assert data["counters"]["runs"] == 1
        assert data["timers"]["t"]["count"] == 1
        assert data["events"][0]["kind"] == "done"
        assert data["chunks"] == []
