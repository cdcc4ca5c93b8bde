"""Tests for the resilient execution engine: retries, checkpoints, metrics."""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core import run_experiment
from repro.core.runner import _ChunkTask, _run_chunk
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import ExperimentSpec
from repro.hashing import DoubleHashingChoices
from repro.metrics import MetricsRegistry
from repro.parallel import EngineConfig, ExecutionEngine


def _echo_chunk(task, chunk_trials, seed_seq):
    """Top-level worker: (task, chunk size, first random draw)."""
    rng = np.random.default_rng(seed_seq)
    return (task, chunk_trials, int(rng.integers(0, 2**31)))


def _histogram_chunk(task, chunk_trials, seed_seq):
    """Worker returning a numpy array (checkpoint codec path)."""
    rng = np.random.default_rng(seed_seq)
    return rng.integers(0, 100, size=(chunk_trials, 4))


def _flaky_chunk(task, chunk_trials, seed_seq):
    """Fails the first time each chunk runs (marker files track calls),
    succeeds on retry with the same seed stream."""
    marker = os.path.join(task["dir"], "-".join(map(str, seed_seq.spawn_key)))
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("injected first-call failure")
    return _echo_chunk(task["inner"], chunk_trials, seed_seq)


def _always_fails(task, chunk_trials, seed_seq):
    raise RuntimeError("permanent failure")


def _fails_from_index(task, chunk_trials, seed_seq):
    """Succeeds for chunks whose marker says "done already", fails for the
    rest — used to interrupt a checkpointed sweep partway."""
    key = "-".join(map(str, seed_seq.spawn_key))
    if key in task["ok"]:
        return _echo_chunk("x", chunk_trials, seed_seq)
    raise RuntimeError(f"injected failure for {key}")


def _sleepy_chunk(task, chunk_trials, seed_seq):
    """Sleeps well past the timeout on its first execution only."""
    flag = task["flag"]
    if not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(10)
    return _echo_chunk("x", chunk_trials, seed_seq)


def _flaky_experiment_chunk(task, chunk_trials, seed_seq):
    """run_experiment's real chunk body wrapped with one injected failure."""
    inner, fail_dir = task
    marker = os.path.join(fail_dir, "-".join(map(str, seed_seq.spawn_key)))
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("injected failure")
    return _run_chunk(inner, chunk_trials, seed_seq)


class TestEdgeCases:
    def test_zero_trials_returns_empty(self):
        engine = ExecutionEngine(EngineConfig(workers=1, chunks=4))
        assert engine.map_chunks(_echo_chunk, None, 0, seed=1) == []

    def test_more_chunks_than_trials(self):
        engine = ExecutionEngine(EngineConfig(workers=1, chunks=10))
        results = engine.map_chunks(_echo_chunk, None, 3, seed=1)
        assert len(results) == 3  # empty chunks are dropped
        assert sum(r[1] for r in results) == 3

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(max_retries=-1)
        with pytest.raises(ConfigurationError):
            EngineConfig(chunk_timeout=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(retry_backoff=-0.1)
        with pytest.raises(ConfigurationError):
            EngineConfig(chunks=0)

    def test_matches_plain_pool(self):
        # The engine's result is exactly a plain serial map over the
        # partitioned chunks and their spawned seed streams.
        from repro.parallel import partition_trials
        from repro.rng import spawn_seeds

        plain = [
            _echo_chunk("t", size, ss)
            for size, ss in zip(partition_trials(10, 4), spawn_seeds(3, 4))
        ]
        engine = ExecutionEngine(EngineConfig(workers=1, chunks=4))
        assert engine.map_chunks(_echo_chunk, "t", 10, seed=3) == plain


class TestRetries:
    def test_serial_retry_bit_identical(self, tmp_path):
        clean = ExecutionEngine(EngineConfig(workers=1, chunks=4)).map_chunks(
            _echo_chunk, "inner", 10, seed=7
        )
        engine = ExecutionEngine(
            EngineConfig(workers=1, chunks=4, retry_backoff=0.0)
        )
        flaky = engine.map_chunks(
            _flaky_chunk, {"dir": str(tmp_path), "inner": "inner"}, 10, seed=7
        )
        assert flaky == clean
        assert engine.metrics.get_counter("engine.retries") == 4
        assert all(c["attempts"] == 2 for c in engine.metrics.chunks)

    def test_pooled_retry_bit_identical(self, tmp_path):
        clean = ExecutionEngine(EngineConfig(workers=1, chunks=4)).map_chunks(
            _echo_chunk, "inner", 8, seed=11
        )
        engine = ExecutionEngine(
            EngineConfig(workers=2, chunks=4, retry_backoff=0.0)
        )
        flaky = engine.map_chunks(
            _flaky_chunk, {"dir": str(tmp_path), "inner": "inner"}, 8, seed=11
        )
        assert flaky == clean
        assert engine.metrics.get_counter("engine.retries") == 4

    def test_retry_budget_exhausted_raises(self):
        engine = ExecutionEngine(
            EngineConfig(workers=1, chunks=2, max_retries=1, retry_backoff=0.0)
        )
        with pytest.raises(SimulationError, match="after 2 attempt"):
            engine.map_chunks(_always_fails, None, 4, seed=1)
        assert engine.metrics.get_counter("engine.retries") == 1
        assert len(engine.metrics.events) >= 2

    def test_experiment_with_injected_failure_bit_identical(self, tmp_path):
        """Acceptance: a chunk failing mid-run retries on its original seed
        child and the final distribution is bit-identical to a clean run."""
        spec = ExperimentSpec(n=256, d=3, trials=20, seed=5, chunks=4)
        clean = run_experiment(DoubleHashingChoices(256, 3), spec)

        inner = _ChunkTask(
            scheme=DoubleHashingChoices(256, 3),
            n_balls=256,
            tie_break="random",
            block=spec.block,
        )
        engine = ExecutionEngine(
            EngineConfig(workers=1, chunks=4, retry_backoff=0.0)
        )
        histograms = engine.map_chunks(
            _flaky_experiment_chunk, (inner, str(tmp_path)), 20, seed=5
        )
        from repro.core.stats import StreamingLoadAggregator

        agg = StreamingLoadAggregator(n_bins=256, n_balls=256)
        for hist in histograms:
            agg.update_histograms(hist)
        assert engine.metrics.get_counter("engine.retries") == 4
        assert np.array_equal(
            agg.distribution().counts, clean.distribution.counts
        )


class TestTimeout:
    def test_timeout_degrades_to_serial_and_matches(self, tmp_path):
        clean = ExecutionEngine(EngineConfig(workers=1, chunks=4)).map_chunks(
            _echo_chunk, "x", 8, seed=13
        )
        engine = ExecutionEngine(
            EngineConfig(
                workers=2, chunks=4, chunk_timeout=0.5, retry_backoff=0.0
            )
        )
        got = engine.map_chunks(
            _sleepy_chunk, {"flag": str(tmp_path / "flag")}, 8, seed=13
        )
        assert got == clean
        assert engine.metrics.get_counter("engine.timeouts") == 1
        assert engine.metrics.get_counter("engine.serial_fallbacks") == 1
        assert any(
            e["kind"] == "degraded-to-serial" for e in engine.metrics.events
        )


class TestCheckpoint:
    def test_full_resume_skips_all_chunks(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        cfg = EngineConfig(workers=1, chunks=4, checkpoint_path=path)
        first = ExecutionEngine(cfg).map_chunks(_echo_chunk, "t", 10, seed=2)
        engine = ExecutionEngine(cfg)
        second = engine.map_chunks(_echo_chunk, "t", 10, seed=2)
        assert second == first
        assert engine.metrics.get_counter("engine.chunks_resumed") == 4
        assert all(c["source"] == "checkpoint" for c in engine.metrics.chunks)

    def test_partial_resume_after_interrupt(self, tmp_path):
        """Interrupt a sweep after two chunks; the re-run must skip them
        and produce the clean-run result."""
        path = tmp_path / "ck.jsonl"
        clean = ExecutionEngine(EngineConfig(workers=1, chunks=4)).map_chunks(
            _echo_chunk, "x", 12, seed=4
        )
        # Chunks 0 and 1 succeed, the rest fail => run dies with a partial
        # checkpoint on disk.
        from repro.rng import spawn_seeds

        keys = [
            "-".join(map(str, s.spawn_key)) for s in spawn_seeds(4, 4)
        ]
        broken = ExecutionEngine(
            EngineConfig(
                workers=1, chunks=4, max_retries=0, retry_backoff=0.0,
                checkpoint_path=path,
            )
        )
        with pytest.raises(SimulationError):
            broken.map_chunks(
                _fails_from_index, {"ok": keys[:2]}, 12, seed=4
            )
        assert path.exists()
        completed = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["index"] for rec in completed[1:]] == [0, 1]

        engine = ExecutionEngine(
            EngineConfig(workers=1, chunks=4, checkpoint_path=path)
        )
        resumed = engine.map_chunks(_echo_chunk, "x", 12, seed=4)
        assert resumed == clean
        assert engine.metrics.get_counter("engine.chunks_resumed") == 2

    def test_numpy_results_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        cfg = EngineConfig(workers=1, chunks=3, checkpoint_path=path)
        first = ExecutionEngine(cfg).map_chunks(_histogram_chunk, None, 9, seed=6)
        resumed = ExecutionEngine(cfg).map_chunks(_histogram_chunk, None, 9, seed=6)
        for a, b in zip(first, resumed):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        cfg = EngineConfig(workers=1, chunks=4, checkpoint_path=path)
        ExecutionEngine(cfg).map_chunks(_echo_chunk, "t", 10, seed=2)
        other = ExecutionEngine(cfg)
        with pytest.raises(ConfigurationError, match="different run"):
            other.map_chunks(_echo_chunk, "t", 10, seed=3)

    def test_torn_tail_line_tolerated(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        cfg = EngineConfig(workers=1, chunks=4, checkpoint_path=path)
        ExecutionEngine(cfg).map_chunks(_echo_chunk, "t", 10, seed=2)
        with path.open("a") as fh:
            fh.write('{"index": 99, "trunc')  # simulated crash mid-append
        engine = ExecutionEngine(cfg)
        result = engine.map_chunks(_echo_chunk, "t", 10, seed=2)
        assert len(result) == 4
        assert engine.metrics.get_counter("engine.chunks_resumed") == 4


class TestObservability:
    def test_progress_callback_sees_every_chunk(self):
        seen = []
        engine = ExecutionEngine(
            EngineConfig(workers=1, chunks=4), progress=seen.append
        )
        engine.map_chunks(_echo_chunk, "t", 10, seed=1)
        assert [p.done for p in seen] == [1, 2, 3, 4]
        assert all(p.total == 4 for p in seen)
        assert sum(p.trials for p in seen) == 10

    def test_shared_registry(self):
        registry = MetricsRegistry()
        engine = ExecutionEngine(EngineConfig(workers=1, chunks=2), metrics=registry)
        engine.map_chunks(_echo_chunk, "t", 4, seed=1)
        snap = registry.snapshot()
        assert snap["counters"]["engine.chunks_total"] == 2
        assert snap["timers"]["engine.chunk_seconds"]["count"] == 2
        assert len(snap["chunks"]) == 2
