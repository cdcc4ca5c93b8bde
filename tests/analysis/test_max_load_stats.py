"""Tests for max-load distribution statistics (Table 4's comparison)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.max_load_stats import compare_max_loads
from repro.core import simulate_batch, simulate_one_choice
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.types import LoadDistribution


def _dist_with_max_loads(max_loads) -> LoadDistribution:
    max_loads = np.asarray(max_loads)
    return LoadDistribution(
        n_bins=10,
        n_balls=10,
        trials=len(max_loads),
        counts=np.array([len(max_loads) * 10]),
        max_load_per_trial=max_loads,
    )


class TestCompareMaxLoads:
    def test_identical_samples_indistinguishable(self):
        d = _dist_with_max_loads([2] * 40 + [3] * 60)
        report = compare_max_loads(d, d)
        assert report.indistinguishable
        assert report.p_value == pytest.approx(1.0)

    def test_detects_gross_difference(self):
        a = _dist_with_max_loads([2] * 90 + [3] * 10)
        b = _dist_with_max_loads([2] * 10 + [3] * 90)
        report = compare_max_loads(a, b)
        assert not report.indistinguishable

    def test_fisher_path_for_small_2x2(self):
        a = _dist_with_max_loads([2] * 3 + [3] * 4)
        b = _dist_with_max_loads([2] * 4 + [3] * 3)
        report = compare_max_loads(a, b)
        assert report.indistinguishable  # tiny samples: no evidence

    def test_degenerate_single_value(self):
        a = _dist_with_max_loads([3] * 20)
        report = compare_max_loads(a, a)
        assert report.p_value == 1.0

    def test_counts_reported(self):
        a = _dist_with_max_loads([2, 2, 3])
        b = _dist_with_max_loads([3, 3, 4])
        report = compare_max_loads(a, b)
        assert report.table_values == (2, 3, 4)
        assert report.counts_a == (2, 1, 0)
        assert report.counts_b == (0, 2, 1)

    def test_paper_claim_on_simulated_max_loads(self):
        """Table 4's message: the two schemes' max-load distributions are
        statistically indistinguishable."""
        n = 2**12
        a = simulate_batch(FullyRandomChoices(n, 3), n, 80, seed=1).distribution()
        b = simulate_batch(
            DoubleHashingChoices(n, 3), n, 80, seed=2
        ).distribution()
        assert compare_max_loads(a, b).indistinguishable

    def test_power_check_one_vs_two_choice(self):
        n = 2**10
        a = simulate_one_choice(n, n, 80, seed=3).distribution()
        b = simulate_batch(FullyRandomChoices(n, 2), n, 80, seed=4).distribution()
        assert not compare_max_loads(a, b).indistinguishable


class TestBootstrapCI:
    def test_brackets_the_mean(self):
        from repro.analysis.max_load_stats import bootstrap_mean_ci

        values = np.array([2] * 30 + [3] * 70)
        mean, low, high = bootstrap_mean_ci(values, seed=1)
        assert mean == pytest.approx(2.7)
        assert low < 2.7 < high

    def test_deterministic_for_seed(self):
        from repro.analysis.max_load_stats import bootstrap_mean_ci

        values = np.array([2, 3, 3, 4, 2, 3])
        assert bootstrap_mean_ci(values, seed=7) == bootstrap_mean_ci(values, seed=7)
        # On a continuous sample different seeds give different resamples
        # (integer samples can quantize both intervals onto the same grid).
        smooth = np.array([2.1, 3.7, 3.2, 4.4, 2.9, 3.3, 2.2, 4.0])
        _, lo_a, hi_a = bootstrap_mean_ci(smooth, seed=7)
        _, lo_b, hi_b = bootstrap_mean_ci(smooth, seed=8)
        assert (lo_a, hi_a) != (lo_b, hi_b)

    def test_degenerate_sample_zero_width(self):
        from repro.analysis.max_load_stats import bootstrap_mean_ci

        mean, low, high = bootstrap_mean_ci(np.array([3, 3, 3, 3]))
        assert mean == low == high == 3.0

    def test_empty_sample_is_nan(self):
        from repro.analysis.max_load_stats import bootstrap_mean_ci

        mean, low, high = bootstrap_mean_ci(np.array([]))
        assert np.isnan(mean) and np.isnan(low) and np.isnan(high)

    def test_narrows_with_sample_size(self):
        from repro.analysis.max_load_stats import bootstrap_mean_ci

        small = np.tile([2, 3], 10)
        large = np.tile([2, 3], 1000)
        _, lo_s, hi_s = bootstrap_mean_ci(small, seed=2)
        _, lo_l, hi_l = bootstrap_mean_ci(large, seed=2)
        assert (hi_s - lo_s) > (hi_l - lo_l)
