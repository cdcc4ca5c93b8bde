"""Tests for the pool helpers and trial-chunk fan-out through the engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import TABLE_DEFAULTS
from repro.parallel import ExecutionEngine, chunk_sizes, partition_trials
from repro.parallel.pool import CHUNK_CELLS


def _echo_chunk(task, chunk_trials, seed_seq):
    """Top-level worker: returns (task, chunk size, first random draw)."""
    rng = np.random.default_rng(seed_seq)
    return (task, chunk_trials, int(rng.integers(0, 2**31)))


def _map_chunks(func, task, sizes, *, seed, workers):
    """Scatter/gather chunks of ``sizes`` trials through the engine."""
    engine = ExecutionEngine(workers=workers)
    return engine.map_chunks(func, task, sizes, seed=seed)


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


class TestChunkSizes:
    """The chunk rule: a pure function of the run's trials and bins."""

    def test_pure_function_of_trials_and_bins(self):
        assert chunk_sizes(12, 4096) == chunk_sizes(12, 4096) == [3, 3, 3, 3]
        assert chunk_sizes(3, 4096) == [1, 1, 1]
        assert chunk_sizes(1, 4096) == [1]

    @pytest.mark.parametrize(
        "trials, n_bins",
        [
            (TABLE_DEFAULTS["table1"].trials, TABLE_DEFAULTS["table1"].n),
            (TABLE_DEFAULTS["table3"].trials, TABLE_DEFAULTS["table3"].n),
            (TABLE_DEFAULTS["table5"].trials, TABLE_DEFAULTS["table5"].n),
            (400, 2**14),  # EXPERIMENTS.md's Tables 1 and 4
        ],
    )
    def test_committed_geometries_keep_four_chunks(self, trials, n_bins):
        assert trials * n_bins <= CHUNK_CELLS // 2
        assert chunk_sizes(trials, n_bins) == partition_trials(trials, 4)

    @pytest.mark.parametrize(
        "trials, n_bins, chunks",
        [
            (10_000, 2**18, 157),  # the full tier's Table 5
            (10_000, 2**14, 10),
            (2, 2**24, 2),
            (3, 2**25, 3),  # a trial over the budget still gets a chunk
            # Bins that do not divide the budget: ceil(trials · bins /
            # budget) = 5 chunks would put 4 trials, 5/4 of it, in one.
            (16, 5 << 20, 6),
        ],
    )
    def test_split_above_the_budget(self, trials, n_bins, chunks):
        sizes = chunk_sizes(trials, n_bins)
        assert len(sizes) == chunks
        assert sum(sizes) == trials
        assert min(sizes) >= 1
        assert max(sizes) * n_bins <= max(CHUNK_CELLS, n_bins)


class TestMapTrialChunks:
    """Trial-chunk fan-out via ``ExecutionEngine.map_chunks``."""

    def test_serial_execution(self):
        results = _map_chunks(
            _echo_chunk, "task", [3, 3, 2, 2], seed=1, workers=1
        )
        assert len(results) == 4
        assert sum(r[1] for r in results) == 10

    def test_deterministic_across_runs(self):
        a = _map_chunks(_echo_chunk, None, [2] * 4, seed=5, workers=1)
        b = _map_chunks(_echo_chunk, None, [2] * 4, seed=5, workers=1)
        assert a == b

    def test_chunks_get_distinct_streams(self):
        results = _map_chunks(
            _echo_chunk, None, [2] * 4, seed=5, workers=1
        )
        draws = [r[2] for r in results]
        assert len(set(draws)) == 4

    def test_parallel_matches_serial(self):
        serial = _map_chunks(_echo_chunk, "x", [2] * 4, seed=9, workers=1)
        parallel = _map_chunks(_echo_chunk, "x", [2] * 4, seed=9, workers=2)
        assert serial == parallel

    def test_task_passed_through(self):
        results = _map_chunks(
            _echo_chunk, {"n": 3}, [2, 2], seed=1, workers=1
        )
        assert all(r[0] == {"n": 3} for r in results)
