"""Tests for the shared dataclasses and the exception hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    ReproError,
    SchemeError,
    SimulationError,
    StabilityError,
    TableFullError,
)
from repro.types import (
    LevelStats,
    LoadDistribution,
    TrialBatchResult,
    level_stats,
    load_distribution,
    trial_histograms,
)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ConfigurationError,
            SchemeError,
            SimulationError,
            StabilityError,
            TableFullError,
        ):
            assert issubclass(exc, ReproError)

    def test_configuration_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)

    def test_simulation_is_runtime_error(self):
        assert issubclass(SimulationError, RuntimeError)

    def test_scheme_error_specializes_configuration(self):
        assert issubclass(SchemeError, ConfigurationError)

    def test_stability_specializes_simulation(self):
        assert issubclass(StabilityError, SimulationError)


def _dist(counts, trials=2) -> LoadDistribution:
    counts = np.asarray(counts, dtype=np.int64)
    return LoadDistribution(
        n_bins=int(counts.sum() // trials),
        n_balls=10,
        trials=trials,
        counts=counts,
        max_load_per_trial=np.full(trials, len(counts) - 1),
    )


class TestLoadDistribution:
    def test_fractions_sum_to_one(self):
        d = _dist([10, 6, 4])
        assert d.fractions.sum() == pytest.approx(1.0)

    def test_tail_fractions(self):
        d = _dist([10, 6, 4])
        assert d.tail_fractions[0] == pytest.approx(1.0)
        assert d.tail_fractions[1] == pytest.approx(0.5)
        assert d.tail_fractions[2] == pytest.approx(0.2)

    def test_fraction_at_out_of_range(self):
        d = _dist([10, 10])
        assert d.fraction_at(99) == 0.0
        assert d.tail_at(99) == 0.0
        with pytest.raises(ValueError):
            d.fraction_at(-1)
        with pytest.raises(ValueError):
            d.tail_at(-2)

    def test_max_load(self):
        d = _dist([10, 6, 4])
        assert d.max_load == 2

    def test_fraction_trials_max_load(self):
        d = LoadDistribution(
            n_bins=4, n_balls=4, trials=4,
            counts=np.array([8, 4, 4]),
            max_load_per_trial=np.array([1, 2, 2, 3]),
        )
        assert d.fraction_trials_max_load(2) == pytest.approx(0.5)
        assert d.fraction_trials_max_load(5) == 0.0

    def test_merge(self):
        # Two runs merge by stacking their histogram matrices: counts add,
        # trials add, max loads keep row order.
        a = np.array([[1, 2, 1], [0, 4, 0]])
        b = np.array([[2, 0, 2], [1, 2, 1]])
        merged = load_distribution(np.vstack([a, b]), 4, 4)
        assert merged.trials == 4
        assert merged.counts.tolist() == [4, 8, 4]
        assert merged.max_load_per_trial.tolist() == [2, 1, 2, 2]


class TestTrialBatchResult:
    def test_distribution_roundtrip(self):
        loads = np.array([[0, 1, 2, 1], [1, 1, 1, 1]])
        batch = TrialBatchResult(n_bins=4, n_balls=4, loads=loads)
        dist = batch.distribution()
        assert dist.counts.tolist() == [1, 6, 1]
        assert dist.max_load_per_trial.tolist() == [2, 1]

    def test_level_stats(self):
        loads = np.array([[0, 0, 2], [1, 1, 0]])
        st = level_stats(trial_histograms(loads), 0)
        assert isinstance(st, LevelStats)
        assert st.minimum == 1 and st.maximum == 2
        assert st.mean == 1.5
        assert st.std == np.std([2, 1], ddof=1)

    def test_level_stats_single_trial_std_zero(self):
        hist = trial_histograms(np.array([[1, 1, 0]]))
        assert level_stats(hist, 1).std == 0.0
