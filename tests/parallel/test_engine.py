"""Tests for the execution engine: fail fast, checkpoints, resume, metrics."""

from __future__ import annotations

import json
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import run_experiment
from repro.errors import ConfigurationError
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


def _fails_from_index(task, chunk_trials, seed_seq):
    """Succeeds for chunks whose marker says "done already", fails for the
    rest — used to interrupt a checkpointed sweep partway."""
    key = "-".join(map(str, seed_seq.spawn_key))
    if key in task["ok"]:
        return _echo_chunk("x", chunk_trials, seed_seq)
    raise RuntimeError(f"injected failure for {key}")


def _config_error_chunk(task, chunk_trials, seed_seq):
    """Chunk 0 logs each call to a marker file and raises a
    ``ConfigurationError``; the other chunks succeed."""
    if seed_seq.spawn_key != (0,):
        return _echo_chunk("x", chunk_trials, seed_seq)
    with open(task, "a") as fh:
        fh.write("call\n")
    raise ConfigurationError("injected configuration error")


def _exits_on_first_run(task, chunk_trials, seed_seq):
    """Chunk 2 kills its worker process the first time it runs (a marker
    file in directory ``task`` remembers); otherwise an echo chunk."""
    marker = os.path.join(task, "exited")
    if seed_seq.spawn_key == (2,) and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(3)
    return _echo_chunk("x", chunk_trials, seed_seq)


class _ExitsOnceScheme(DoubleHashingChoices):
    """Double hashing whose first batch kills the process it runs in, once
    per ``marker`` file; afterwards it is plain double hashing."""

    def __init__(self, n_bins, d, marker):
        super().__init__(n_bins, d)
        self.marker = marker

    def batch_planar(self, trials, rng):
        if not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(3)
        return super().batch_planar(trials, rng)


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
            EngineConfig(workers=-1)
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


class TestFailFast:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_error_propagates_unwrapped(self, tmp_path, workers):
        calls = tmp_path / "calls"
        engine = ExecutionEngine(EngineConfig(workers=workers, chunks=4))
        with pytest.raises(ConfigurationError, match="injected configuration"):
            engine.map_chunks(_config_error_chunk, str(calls), 8, seed=1)
        assert calls.read_text() == "call\n"  # ran once: nothing retries

    def test_killed_worker_raises_and_rerun_resumes(self, tmp_path):
        clean = ExecutionEngine(EngineConfig(workers=1, chunks=4)).map_chunks(
            _echo_chunk, "x", 8, seed=11
        )
        path = tmp_path / "ck.jsonl"
        cfg = EngineConfig(workers=2, chunks=4, checkpoint_path=path)
        task = str(tmp_path)
        with pytest.raises(BrokenProcessPool):
            ExecutionEngine(cfg).map_chunks(
                _exits_on_first_run, task, 8, seed=11
            )
        written = len(path.read_text().splitlines()) - 1  # minus the header
        engine = ExecutionEngine(cfg)
        assert engine.map_chunks(_exits_on_first_run, task, 8, seed=11) == clean
        resumed = engine.metrics.get_counter("engine.chunks_resumed")
        assert resumed == written < 4  # the killed chunk never completed
        # The rerun checkpointed the rest: a third run restores them all.
        third = ExecutionEngine(cfg)
        assert third.map_chunks(_exits_on_first_run, task, 8, seed=11) == clean
        assert third.metrics.get_counter("engine.chunks_resumed") == 4

    def test_experiment_rerun_resumes_bit_identical(self, tmp_path):
        """A pooled run_experiment sweep whose worker dies fails; a rerun
        with its checkpoint (serial, to skip a second pool start-up) gives
        the clean run's distribution."""
        spec = ExperimentSpec(n=256, d=3, trials=20, seed=5, chunks=4)
        done = tmp_path / "done"
        done.touch()
        clean = run_experiment(_ExitsOnceScheme(256, 3, str(done)), spec)

        scheme = _ExitsOnceScheme(256, 3, str(tmp_path / "exited"))
        failing = spec.replace(workers=2, checkpoint=str(tmp_path / "ck.jsonl"))
        with pytest.raises(BrokenProcessPool):
            run_experiment(scheme, failing)
        resumed = run_experiment(scheme, failing, workers=1)
        assert np.array_equal(
            resumed.distribution.counts, clean.distribution.counts
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
            EngineConfig(workers=1, chunks=4, checkpoint_path=path)
        )
        with pytest.raises(RuntimeError, match="injected failure"):
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

    def test_restores_lines_with_an_attempt_count(self, tmp_path):
        """Checkpoint lines once carried an ``attempts`` field; files
        written in that format still resume."""
        path = tmp_path / "ck.jsonl"
        cfg = EngineConfig(workers=1, chunks=4, checkpoint_path=path)
        first = ExecutionEngine(cfg).map_chunks(_echo_chunk, "t", 10, seed=2)
        header, *lines = path.read_text().splitlines()
        records = [{**json.loads(line), "attempts": 1} for line in lines]
        path.write_text(
            "\n".join([header, *map(json.dumps, records)]) + "\n"
        )
        engine = ExecutionEngine(cfg)
        assert engine.map_chunks(_echo_chunk, "t", 10, seed=2) == first
        assert engine.metrics.get_counter("engine.chunks_resumed") == 4

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
