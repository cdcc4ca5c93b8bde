"""Tests for benchmarks/harness.py and the A/B bench scripts that share it.

Each script runs one round at a toy geometry, and its report must keep
the committed ``BENCH_*.json``'s nested keys, key order and value types:
``tools/bench_trend.py`` and docs/performance.md read those files.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    """Import ``benchmarks/<name>.py`` by path, as a script would run."""
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


harness = _load("harness")  # the scripts import it by name


def _shape(node):
    """Nested keys in order; lists and scalars by type."""
    if isinstance(node, dict):
        return [(key, _shape(value)) for key, value in node.items()]
    return type(node).__name__


TOY = {
    "kernels": {"n": 2**8, "trials": 2},
    "supermarket": {"n": 50, "sim_time": 30.0, "burn_in": 6.0},
    "peeling": {"m": 2000, "n_items": 2000, "n_diff": 50},
    "schemes": {
        "n": 2**10, "d": 3, "trials": 2, "n_keys": 2**10,
        "seed": harness.SEED, "map_trials": 4,
    },
    "service": {"n": 2**10, "n_keys": 2**12, "micro_batch": 512},
}


class TestReportShapes:
    @pytest.mark.parametrize("name", sorted(TOY))
    def test_report_keeps_committed_shape(self, name, monkeypatch):
        script = _load(f"bench_{name}")
        if name == "kernels":
            monkeypatch.setitem(script.DISPATCH, "n", 2**9)
        report = json.loads(json.dumps(script.run(rounds=1, **TOY[name])))
        committed = json.loads(
            (REPO_ROOT / f"BENCH_{name}.json").read_text()
        )
        assert _shape(report) == _shape(committed)


class TestInterleave:
    def test_each_round_calls_every_contestant_once_in_order(self):
        calls = []
        contestants = {
            name: (lambda name=name: calls.append(name) or 0.0)
            for name in ("a", "b", "c")
        }
        harness.interleave(contestants, 3)
        assert calls == ["a", "b", "c"] * 3

    def test_one_time_per_round(self):
        seconds = iter(range(1, 7))
        times = harness.interleave(
            {"a": lambda: next(seconds), "b": lambda: next(seconds)}, 3
        )
        assert times == {"a": [1, 3, 5], "b": [2, 4, 6]}

    def test_timed_reports_the_call(self):
        times = harness.interleave(
            {"sleep": harness.timed(lambda: time.sleep(0.002))}, 2
        )
        assert len(times["sleep"]) == 2
        assert all(t >= 0.002 for t in times["sleep"])


class TestSummary:
    def test_baseline_ratio_to_itself_is_one(self):
        times = {"base": [0.3, 0.1, 0.2], "fast": [0.05, 0.1, 0.07]}
        entries = harness.summary(times, 100, "balls", baseline="base")
        assert entries["base"]["speedup_vs_base"] == 1.0
        assert entries["fast"]["speedup_vs_base"] == round(0.2 / 0.07, 3)
        assert list(entries["fast"]) == [
            "round_seconds", "median_seconds", "balls_per_second",
            "speedup_vs_base",
        ]

    def test_rate_uses_each_contestants_own_work(self):
        entries = harness.summary(
            {"a": [2.0], "b": [2.0]}, {"a": 10, "b": 30}, "events"
        )
        assert entries["a"]["events_per_second"] == 5.0
        assert entries["b"]["events_per_second"] == 15.0
        assert list(entries["a"]) == [
            "round_seconds", "median_seconds", "events_per_second",
        ]


class TestParser:
    def test_shared_flags(self):
        args = harness.parser("x", "BENCH_x.json", rounds=7).parse_args([])
        assert args.out == str(REPO_ROOT / "BENCH_x.json")
        assert (args.rounds, args.seed) == (7, 20140623)

    def test_no_rounds_without_a_default(self):
        args = harness.parser("x", "BENCH_x.json").parse_args([])
        assert not hasattr(args, "rounds")
