"""Tests for the pool helpers and trial-chunk fan-out through the engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import EngineConfig, ExecutionEngine, partition_trials
from repro.parallel.pool import default_workers


def _echo_chunk(task, chunk_trials, seed_seq):
    """Top-level worker: returns (task, chunk size, first random draw)."""
    rng = np.random.default_rng(seed_seq)
    return (task, chunk_trials, int(rng.integers(0, 2**31)))


def _map_chunks(func, task, trials, *, seed, workers, chunks):
    """Scatter/gather trial chunks through the execution engine."""
    engine = ExecutionEngine(EngineConfig(workers=workers, chunks=chunks))
    return engine.map_chunks(func, task, trials, seed=seed)


class TestPartition:
    def test_even_split(self):
        assert partition_trials(12, 4) == [3, 3, 3, 3]

    def test_uneven_split(self):
        assert partition_trials(10, 4) == [3, 3, 2, 2]

    def test_more_chunks_than_trials(self):
        parts = partition_trials(3, 10)
        assert sum(parts) == 3
        assert all(p > 0 for p in parts)

    def test_zero_trials(self):
        assert sum(partition_trials(0, 4)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_trials(-1, 2)
        with pytest.raises(ValueError):
            partition_trials(5, 0)

    def test_partition_conserves_total(self):
        for trials in (1, 7, 100, 1001):
            for chunks in (1, 3, 8):
                assert sum(partition_trials(trials, chunks)) == trials


class TestMapTrialChunks:
    """Trial-chunk fan-out via ``ExecutionEngine.map_chunks``."""

    def test_serial_execution(self):
        results = _map_chunks(
            _echo_chunk, "task", 10, seed=1, workers=1, chunks=4
        )
        assert len(results) == 4
        assert sum(r[1] for r in results) == 10

    def test_deterministic_across_runs(self):
        a = _map_chunks(_echo_chunk, None, 8, seed=5, workers=1, chunks=4)
        b = _map_chunks(_echo_chunk, None, 8, seed=5, workers=1, chunks=4)
        assert a == b

    def test_chunks_get_distinct_streams(self):
        results = _map_chunks(
            _echo_chunk, None, 8, seed=5, workers=1, chunks=4
        )
        draws = [r[2] for r in results]
        assert len(set(draws)) == 4

    def test_parallel_matches_serial(self):
        serial = _map_chunks(_echo_chunk, "x", 8, seed=9, workers=1, chunks=4)
        parallel = _map_chunks(_echo_chunk, "x", 8, seed=9, workers=2, chunks=4)
        assert serial == parallel

    def test_task_passed_through(self):
        results = _map_chunks(
            _echo_chunk, {"n": 3}, 4, seed=1, workers=1, chunks=2
        )
        assert all(r[0] == {"n": 3} for r in results)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_override_beats_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "32")
        assert default_workers() == 32

    def test_env_unset_caps_at_eight(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert 1 <= default_workers() <= 8

    def test_env_blank_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert 1 <= default_workers() <= 8

    @pytest.mark.parametrize("bad", ["zero", "0", "-2", "1.5"])
    def test_env_invalid_rejected(self, monkeypatch, bad):
        from repro.errors import ConfigurationError

        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ConfigurationError):
            default_workers()
