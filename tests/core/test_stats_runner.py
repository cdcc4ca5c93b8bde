"""Tests for result aggregation (stats) and the experiment runner."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import run_experiment, simulate_batch
from repro.core.stats import (
    StreamingLoadAggregator,
    trial_histograms,
)
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentSpec
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.types import TrialBatchResult


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


class TestStreamingAggregator:
    def test_matches_direct_distribution(self):
        batch = _small_batch(seed=3, trials=20)
        agg = StreamingLoadAggregator(n_bins=64, n_balls=64)
        agg.update(batch)
        direct = batch.distribution()
        streamed = agg.distribution()
        assert np.array_equal(streamed.counts, direct.counts)
        assert np.array_equal(
            np.sort(streamed.max_load_per_trial),
            np.sort(direct.max_load_per_trial),
        )

    def test_chunked_equals_monolithic(self):
        """Feeding trials in chunks must give identical statistics to one
        batch (Welford merge correctness)."""
        full = simulate_batch(FullyRandomChoices(32, 2), 32, 30, seed=5)
        agg = StreamingLoadAggregator(n_bins=32, n_balls=32)
        for start in range(0, 30, 7):
            chunk = TrialBatchResult(
                n_bins=32, n_balls=32, loads=full.loads[start : start + 7]
            )
            agg.update(chunk)
        for load in range(4):
            direct = full.level_stats(load)
            streamed = agg.level_stats(load)
            assert streamed.minimum == direct.minimum
            assert streamed.maximum == direct.maximum
            assert streamed.mean == pytest.approx(direct.mean, rel=1e-12)
            assert streamed.std == pytest.approx(direct.std, rel=1e-9)

    def test_late_appearing_level_min_is_zero(self):
        """A load level first seen in chunk 2 must report min=0 because
        chunk-1 trials had zero bins at that level."""
        agg = StreamingLoadAggregator(n_bins=4, n_balls=4)
        agg.update_histograms(np.array([[4, 0, 0]]))  # no load-2 bins
        agg.update_histograms(np.array([[1, 1, 1]]))  # one load-2 bin
        st2 = agg.level_stats(2)
        assert st2.minimum == 0
        assert st2.maximum == 1

    def test_geometry_mismatch_rejected(self):
        agg = StreamingLoadAggregator(n_bins=8, n_balls=8)
        with pytest.raises(ValueError, match="geometry"):
            agg.update(_small_batch())

    def test_empty_aggregator_raises(self):
        agg = StreamingLoadAggregator(n_bins=8, n_balls=8)
        with pytest.raises(ValueError):
            agg.distribution()
        with pytest.raises(ValueError):
            agg.level_stats(0)

    def test_stats_beyond_observed_levels(self):
        agg = StreamingLoadAggregator(n_bins=4, n_balls=4)
        agg.update_histograms(np.array([[2, 2]]))
        st9 = agg.level_stats(9)
        assert st9.minimum == 0 and st9.maximum == 0 and st9.mean == 0.0


class TestRunExperiment:
    def test_basic_run(self):
        spec = ExperimentSpec(n=64, d=3, trials=10, seed=1)
        res = run_experiment(DoubleHashingChoices(64, 3), spec)
        assert res.distribution.trials == 10
        assert res.distribution.counts.sum() == 10 * 64
        assert "double" in res.scheme_description

    def test_chunked_equals_unchunked_in_law(self):
        spec = ExperimentSpec(n=256, d=3, trials=40, seed=2)
        a = run_experiment(FullyRandomChoices(256, 3), spec.replace(chunks=1))
        b = run_experiment(FullyRandomChoices(256, 3), spec.replace(chunks=8))
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
        spec = ExperimentSpec(n=64, d=3, trials=8, seed=3, chunks=4)
        serial = run_experiment(DoubleHashingChoices(64, 3), spec)
        parallel = run_experiment(
            DoubleHashingChoices(64, 3), spec.replace(workers=2)
        )
        assert np.array_equal(
            serial.distribution.counts, parallel.distribution.counts
        )

    def test_legacy_signature_rejected(self):
        with pytest.raises(TypeError, match="ExperimentSpec"):
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
    """Total counts equal trials * n_bins regardless of chunking."""
    full = simulate_batch(FullyRandomChoices(16, 2), 16, trials, seed=seed)
    agg = StreamingLoadAggregator(n_bins=16, n_balls=16)
    for start in range(0, trials, chunk):
        agg.update(
            TrialBatchResult(
                n_bins=16, n_balls=16, loads=full.loads[start : start + chunk]
            )
        )
    assert agg.distribution().counts.sum() == trials * 16
