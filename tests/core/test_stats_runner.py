"""Tests for the experiment runner and the aggregate it returns."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import run_experiment, simulate_batch
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentSpec
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.metrics import MetricsRegistry
from repro.parallel import chunk_sizes, pool
from repro.rng import spawn_seeds
from repro.types import TrialBatchResult, level_stats, trial_histograms


def _small_batch(seed: int = 1, trials: int = 12) -> TrialBatchResult:
    return simulate_batch(FullyRandomChoices(64, 3), 64, trials, seed=seed)


class TestTrialHistograms:
    def test_rows_sum_to_bins(self):
        batch = _small_batch()
        hist = trial_histograms(batch.loads)
        assert (hist.sum(axis=1) == 64).all()

    def test_weighted_sum_is_balls(self):
        batch = _small_batch()
        hist = trial_histograms(batch.loads)
        loads_recovered = (hist * np.arange(hist.shape[1])).sum(axis=1)
        assert (loads_recovered == 64).all()


class TestRunAggregate:
    """A run's aggregate is its chunks' histograms, stacked in order.

    With one trial per chunk, ``seed=1`` gives chunks of max load 2 and
    3: load 3 first appears in the third chunk.
    """

    SPEC = ExperimentSpec(n=64, d=2, trials=6, seed=1)

    @pytest.fixture
    def one_trial_chunks(self, monkeypatch):
        monkeypatch.setattr(pool, "CHUNK_CELLS", 64)
        assert chunk_sizes(6, 64) == [1] * 6

    @staticmethod
    def _chunk_loads(spec: ExperimentSpec) -> np.ndarray:
        """The raw loads of the run's chunks, stacked in chunk order."""
        sizes = chunk_sizes(spec.trials, spec.n)
        return np.concatenate([
            simulate_batch(
                FullyRandomChoices(spec.n, spec.d), spec.balls, size,
                seed=np.random.default_rng(child),
            ).loads
            for size, child in zip(sizes, spawn_seeds(spec.seed, len(sizes)))
        ])

    def test_distribution_matches_stacked_chunk_loads(self, one_trial_chunks):
        res = run_experiment(FullyRandomChoices(64, 2), self.SPEC)
        loads = self._chunk_loads(self.SPEC)
        assert len({int(row.max()) for row in loads}) > 1  # widths differ
        dist = res.distribution
        assert dist.counts.tolist() == np.bincount(loads.ravel()).tolist()
        assert dist.max_load_per_trial.tolist() == loads.max(axis=1).tolist()
        assert res.histograms.dtype == np.int64
        assert res.histograms.shape == (6, loads.max() + 1)

    def test_level_stats_match_stacked_chunk_loads(self, one_trial_chunks):
        res = run_experiment(FullyRandomChoices(64, 2), self.SPEC)
        loads = self._chunk_loads(self.SPEC)
        for load in range(loads.max() + 1):
            per_trial = (loads == load).sum(axis=1)
            st = level_stats(res.histograms, load)
            assert (st.minimum, st.maximum) == (per_trial.min(), per_trial.max())
            assert st.mean == per_trial.sum() / len(per_trial)
            assert st.std == per_trial.std(ddof=1)

    def test_late_appearing_level_min_is_zero(self, one_trial_chunks):
        """Load 3 is first seen in a later chunk, so the chunks before it
        count zero bins there."""
        res = run_experiment(FullyRandomChoices(64, 2), self.SPEC)
        first = self._chunk_loads(self.SPEC)[0]
        assert first.max() == 2 and res.distribution.max_load == 3
        st = level_stats(res.histograms, 3)
        assert st.minimum == 0 and st.maximum >= 1

    def test_stats_beyond_observed_levels(self):
        res = run_experiment(FullyRandomChoices(64, 2), self.SPEC)
        past = res.histograms.shape[1]
        st = level_stats(res.histograms, past)
        assert (st.minimum, st.maximum, st.mean, st.std) == (0, 0, 0.0, 0.0)

    def test_one_trial_std_is_zero(self):
        res = run_experiment(
            FullyRandomChoices(64, 2), self.SPEC.replace(trials=1)
        )
        assert res.histograms.shape[0] == 1
        for load in range(res.histograms.shape[1]):
            assert level_stats(res.histograms, load).std == 0.0

    def test_checkpoint_restore_is_identical(self, tmp_path):
        spec = self.SPEC.replace(checkpoint=str(tmp_path / "ck.jsonl"))
        first = run_experiment(FullyRandomChoices(64, 2), spec)
        registry = MetricsRegistry()
        again = run_experiment(FullyRandomChoices(64, 2), spec, metrics=registry)
        counters = registry.snapshot()["counters"]
        assert counters["engine.chunks_resumed"] == counters["engine.chunks_total"] == 4
        assert again.histograms.dtype == first.histograms.dtype
        assert np.array_equal(again.histograms, first.histograms)
        assert np.array_equal(again.distribution.counts, first.distribution.counts)
        assert np.array_equal(
            again.distribution.max_load_per_trial,
            first.distribution.max_load_per_trial,
        )


class TestRunExperiment:
    def test_basic_run(self):
        spec = ExperimentSpec(n=64, d=3, trials=10, seed=1)
        res = run_experiment(DoubleHashingChoices(64, 3), spec)
        assert res.distribution.trials == 10
        assert res.distribution.counts.sum() == 10 * 64
        assert "double" in res.scheme_description

    def test_chunked_equals_unchunked_in_law(self, monkeypatch):
        spec = ExperimentSpec(n=256, d=3, trials=40, seed=2)
        a = run_experiment(FullyRandomChoices(256, 3), spec)
        # A budget of 5 trials per chunk splits the run into 8 chunks.
        monkeypatch.setattr(pool, "CHUNK_CELLS", 5 * 256)
        assert len(chunk_sizes(40, 256)) == 8
        b = run_experiment(FullyRandomChoices(256, 3), spec)
        assert abs(
            a.distribution.fraction_at(1) - b.distribution.fraction_at(1)
        ) < 0.02

    def test_reproducible(self):
        spec = ExperimentSpec(n=32, d=2, trials=8, seed=9)
        a = run_experiment(DoubleHashingChoices(32, 2), spec)
        b = run_experiment(DoubleHashingChoices(32, 2), spec)
        assert np.array_equal(a.distribution.counts, b.distribution.counts)

    def test_multiprocess_matches_serial(self):
        """workers=2 must produce exactly the serial result (same spawned
        seed streams, order-independent aggregation)."""
        spec = ExperimentSpec(n=64, d=3, trials=8, seed=3)
        serial = run_experiment(DoubleHashingChoices(64, 3), spec)
        parallel = run_experiment(
            DoubleHashingChoices(64, 3), spec.replace(workers=2)
        )
        assert np.array_equal(
            serial.distribution.counts, parallel.distribution.counts
        )

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_do_not_change_results(self, workers):
        """The chunks follow from the run alone, so every worker count
        gives the serial run's numbers (12 trials: four chunks of 3)."""
        spec = ExperimentSpec(n=128, d=3, trials=12, seed=7)
        serial = run_experiment(DoubleHashingChoices(128, 3), spec)
        pooled = run_experiment(
            DoubleHashingChoices(128, 3), spec.replace(workers=workers)
        )
        assert np.array_equal(
            pooled.distribution.counts, serial.distribution.counts
        )
        assert np.array_equal(
            pooled.distribution.max_load_per_trial,
            serial.distribution.max_load_per_trial,
        )

    def test_legacy_signature_rejected(self):
        with pytest.raises(TypeError, match="ExperimentSpec"):
            run_experiment(DoubleHashingChoices(64, 3), 64)
        with pytest.raises(TypeError):  # no trials argument, no overrides
            run_experiment(DoubleHashingChoices(64, 3), 64, 10, seed=1)

    def test_invalid_trials(self):
        with pytest.raises(ConfigurationError):
            run_experiment(
                FullyRandomChoices(8, 2), ExperimentSpec(n=8, d=2, trials=0)
            )


@given(
    trials=st.integers(min_value=1, max_value=25),
    chunk=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_property_aggregator_counts_invariant(trials, chunk, seed):
    """A run's counts equal its stacked chunk loads' bincount, summing to
    trials * n_bins, whatever the chunk size."""
    spec = ExperimentSpec(n=16, d=2, trials=trials, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pool, "CHUNK_CELLS", chunk * 16)
        res = run_experiment(FullyRandomChoices(16, 2), spec)
        loads = TestRunAggregate._chunk_loads(spec)
    counts = res.distribution.counts
    assert counts.tolist() == np.bincount(loads.ravel()).tolist()
    assert counts.sum() == trials * 16
