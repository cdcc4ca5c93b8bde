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
from repro.parallel import ExecutionEngine, partition_trials

#: The chunking most tests run: 10 trials in chunks of 3, 3, 2, 2.
SIZES = partition_trials(10, 4)


def _echo_chunk(task, chunk_trials, seed_seq):
    """Top-level worker: (task, chunk size, first random draw)."""
    rng = np.random.default_rng(seed_seq)
    return (task, chunk_trials, int(rng.integers(0, 2**31)))


def _histogram_chunk(task, chunk_trials, seed_seq):
    """Worker returning a numpy array (checkpoint codec path)."""
    rng = np.random.default_rng(seed_seq)
    return rng.integers(0, 100, size=(chunk_trials, 4))


def _fails_past_two_while_marked(task, chunk_trials, seed_seq):
    """Chunks 0 and 1 echo; the rest fail while directory ``task`` holds a
    ``broken`` marker — used to interrupt a checkpointed sweep partway."""
    if seed_seq.spawn_key[0] >= 2 and os.path.exists(
        os.path.join(task, "broken")
    ):
        raise RuntimeError(f"injected failure for {seed_seq.spawn_key}")
    return _echo_chunk("x", chunk_trials, seed_seq)


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
        engine = ExecutionEngine(workers=1)
        assert engine.map_chunks(_echo_chunk, None, [], seed=1) == []

    def test_more_chunks_than_trials(self):
        engine = ExecutionEngine(workers=1)
        results = engine.map_chunks(
            _echo_chunk, None, partition_trials(3, 10), seed=1
        )
        assert len(results) == 3  # no empty chunks
        assert sum(r[1] for r in results) == 3

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionEngine(workers=-1)
        # The chunks and the checkpoint come with each call.
        with pytest.raises(TypeError):
            ExecutionEngine(chunks=4)
        with pytest.raises(TypeError):
            ExecutionEngine(checkpoint="ck.jsonl")

    def test_matches_plain_pool(self):
        # The engine's result is exactly a plain serial map over the
        # given chunks and their spawned seed streams.
        from repro.rng import spawn_seeds

        plain = [
            _echo_chunk("t", size, ss)
            for size, ss in zip(SIZES, spawn_seeds(3, 4))
        ]
        engine = ExecutionEngine(workers=1)
        assert engine.map_chunks(_echo_chunk, "t", SIZES, seed=3) == plain


class TestFailFast:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_error_propagates_unwrapped(self, tmp_path, workers):
        calls = tmp_path / "calls"
        engine = ExecutionEngine(workers=workers)
        with pytest.raises(ConfigurationError, match="injected configuration"):
            engine.map_chunks(_config_error_chunk, str(calls), [2] * 4, seed=1)
        assert calls.read_text() == "call\n"  # ran once: nothing retries

    def test_killed_worker_raises_and_rerun_resumes(self, tmp_path):
        sizes = [2] * 4
        clean = ExecutionEngine(workers=1).map_chunks(
            _echo_chunk, "x", sizes, seed=11
        )
        path = tmp_path / "ck.jsonl"
        task = str(tmp_path)
        with pytest.raises(BrokenProcessPool):
            ExecutionEngine(workers=2).map_chunks(
                _exits_on_first_run, task, sizes, seed=11, checkpoint=path
            )
        written = len(path.read_text().splitlines()) - 1  # minus the header
        engine = ExecutionEngine(workers=2)
        assert engine.map_chunks(
            _exits_on_first_run, task, sizes, seed=11, checkpoint=path
        ) == clean
        resumed = engine.metrics.get_counter("engine.chunks_resumed")
        assert resumed == written < 4  # the killed chunk never completed
        # The rerun checkpointed the rest: a third run restores them all.
        third = ExecutionEngine(workers=2)
        assert third.map_chunks(
            _exits_on_first_run, task, sizes, seed=11, checkpoint=path
        ) == clean
        assert third.metrics.get_counter("engine.chunks_resumed") == 4

    def test_experiment_rerun_resumes_bit_identical(self, tmp_path):
        """A pooled run_experiment sweep whose worker dies fails; a rerun
        with its checkpoint (serial, to skip a second pool start-up) gives
        the clean run's distribution."""
        spec = ExperimentSpec(n=256, d=3, trials=20, seed=5)
        done = tmp_path / "done"
        done.touch()
        clean = run_experiment(_ExitsOnceScheme(256, 3, str(done)), spec)

        scheme = _ExitsOnceScheme(256, 3, str(tmp_path / "exited"))
        failing = spec.replace(workers=2, checkpoint=str(tmp_path / "ck.jsonl"))
        with pytest.raises(BrokenProcessPool):
            run_experiment(scheme, failing)
        resumed = run_experiment(scheme, failing.replace(workers=1))
        assert np.array_equal(
            resumed.distribution.counts, clean.distribution.counts
        )


class TestCheckpoint:
    def test_full_resume_skips_all_chunks(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        first = ExecutionEngine(workers=1).map_chunks(
            _echo_chunk, "t", SIZES, seed=2, checkpoint=path
        )
        engine = ExecutionEngine(workers=1)
        second = engine.map_chunks(_echo_chunk, "t", SIZES, seed=2, checkpoint=path)
        assert second == first
        assert engine.metrics.get_counter("engine.chunks_resumed") == 4
        assert all(c["source"] == "checkpoint" for c in engine.metrics.chunks)

    def test_partial_resume_after_interrupt(self, tmp_path):
        """Interrupt a sweep after two chunks; the re-run must skip them
        and produce the clean-run result."""
        path = tmp_path / "ck.jsonl"
        sizes = [3] * 4
        clean = ExecutionEngine(workers=1).map_chunks(
            _echo_chunk, "x", sizes, seed=4
        )
        # Chunks 0 and 1 succeed, the rest fail => run dies with a partial
        # checkpoint on disk.
        task = str(tmp_path)
        (tmp_path / "broken").touch()
        with pytest.raises(RuntimeError, match="injected failure"):
            ExecutionEngine(workers=1).map_chunks(
                _fails_past_two_while_marked, task, sizes, seed=4,
                checkpoint=path,
            )
        assert path.exists()
        completed = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["index"] for rec in completed[1:]] == [0, 1]

        (tmp_path / "broken").unlink()
        engine = ExecutionEngine(workers=1)
        resumed = engine.map_chunks(
            _fails_past_two_while_marked, task, sizes, seed=4, checkpoint=path
        )
        assert resumed == clean
        assert engine.metrics.get_counter("engine.chunks_resumed") == 2

    def test_one_engine_keeps_a_checkpoint_per_call(self, tmp_path):
        """Each call names its own file, so one engine runs several
        sub-runs and a rerun restores each from its own checkpoint."""
        runs = [("a", 1, tmp_path / "a.jsonl"), ("b", 2, tmp_path / "b.jsonl")]

        def sweep(engine):
            return [
                engine.map_chunks(_echo_chunk, task, SIZES, seed=seed,
                                  checkpoint=path)
                for task, seed, path in runs
            ]

        first = sweep(ExecutionEngine(workers=1))
        engine = ExecutionEngine(workers=1)
        assert sweep(engine) == first
        assert engine.metrics.get_counter("engine.chunks_resumed") == 8

    def test_restores_lines_with_an_attempt_count(self, tmp_path):
        """Checkpoint lines once carried an ``attempts`` field; the loader
        ignores a line's extra fields."""
        path = tmp_path / "ck.jsonl"
        first = ExecutionEngine(workers=1).map_chunks(
            _echo_chunk, "t", SIZES, seed=2, checkpoint=path
        )
        header, *lines = path.read_text().splitlines()
        records = [{**json.loads(line), "attempts": 1} for line in lines]
        path.write_text(
            "\n".join([header, *map(json.dumps, records)]) + "\n"
        )
        engine = ExecutionEngine(workers=1)
        assert engine.map_chunks(
            _echo_chunk, "t", SIZES, seed=2, checkpoint=path
        ) == first
        assert engine.metrics.get_counter("engine.chunks_resumed") == 4

    def test_numpy_results_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        sizes = [3] * 3
        first = ExecutionEngine(workers=1).map_chunks(
            _histogram_chunk, None, sizes, seed=6, checkpoint=path
        )
        resumed = ExecutionEngine(workers=1).map_chunks(
            _histogram_chunk, None, sizes, seed=6, checkpoint=path
        )
        for a, b in zip(first, resumed):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        engine = ExecutionEngine(workers=1)
        engine.map_chunks(_echo_chunk, "t", SIZES, seed=2, checkpoint=path)
        with pytest.raises(ConfigurationError, match="different run"):
            engine.map_chunks(_echo_chunk, "t", SIZES, seed=3, checkpoint=path)

    @pytest.mark.parametrize(
        "change",
        [
            dict(n=128),
            dict(d=4),
            dict(n_balls=512),
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_checkpoint_of_another_experiment_refused(self, tmp_path, change):
        """The header carries the run's identity, so a rerun at another
        geometry cannot restore the first run's chunks."""
        spec = ExperimentSpec(
            n=64, d=3, trials=4, seed=1, checkpoint=str(tmp_path / "ck.jsonl")
        )
        run_experiment(DoubleHashingChoices(spec.n, spec.d), spec)
        other = spec.replace(**change)
        with pytest.raises(ConfigurationError, match="different run"):
            run_experiment(DoubleHashingChoices(other.n, other.d), other)

    def test_checkpoint_without_run_identity_refused(self, tmp_path):
        """Checkpoints from before the header named the run are refused."""
        path = tmp_path / "ck.jsonl"
        old = {"kind": "repro-engine-checkpoint", "version": 1,
               "trials": 10, "chunks": 4, "seed": 2}
        path.write_text(json.dumps(old) + "\n")
        engine = ExecutionEngine(workers=1)
        with pytest.raises(ConfigurationError, match="different run"):
            engine.map_chunks(_echo_chunk, "t", SIZES, seed=2, checkpoint=path)

    def test_torn_tail_line_tolerated(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ExecutionEngine(workers=1).map_chunks(
            _echo_chunk, "t", SIZES, seed=2, checkpoint=path
        )
        with path.open("a") as fh:
            fh.write('{"index": 99, "trunc')  # simulated crash mid-append
        engine = ExecutionEngine(workers=1)
        result = engine.map_chunks(_echo_chunk, "t", SIZES, seed=2, checkpoint=path)
        assert len(result) == 4
        assert engine.metrics.get_counter("engine.chunks_resumed") == 4


class TestObservability:
    def test_progress_callback_sees_every_chunk(self):
        seen = []
        engine = ExecutionEngine(workers=1, progress=seen.append)
        engine.map_chunks(_echo_chunk, "t", SIZES, seed=1)
        assert [p.done for p in seen] == [1, 2, 3, 4]
        assert all(p.total == 4 for p in seen)
        assert sum(p.trials for p in seen) == 10

    def test_shared_registry(self):
        registry = MetricsRegistry()
        engine = ExecutionEngine(workers=1, metrics=registry)
        engine.map_chunks(_echo_chunk, "t", [2, 2], seed=1)
        snap = registry.snapshot()
        assert snap["counters"]["engine.chunks_total"] == 2
        assert snap["timers"]["engine.chunk_seconds"]["count"] == 2
        assert len(snap["chunks"]) == 2
