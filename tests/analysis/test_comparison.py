"""Tests for statistical indistinguishability tooling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    chi_square_comparison,
    compare_distributions,
    total_variation,
)
from repro.analysis.comparison import (
    cramers_v,
    holm_correction,
)
from repro.core import simulate_batch, simulate_one_choice
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.types import LoadDistribution


def _dist(counts, trials=10, n_bins=None, n_balls=100) -> LoadDistribution:
    counts = np.asarray(counts, dtype=np.int64)
    n_bins = n_bins or int(counts.sum() // trials)
    return LoadDistribution(
        n_bins=n_bins,
        n_balls=n_balls,
        trials=trials,
        counts=counts,
        max_load_per_trial=np.full(trials, len(counts) - 1),
    )


class TestTotalVariation:
    def test_identical_is_zero(self):
        d = _dist([50, 30, 20])
        assert total_variation(d, d) == 0.0

    def test_disjoint_is_one(self):
        a = _dist([100, 0])
        b = _dist([0, 100])
        assert total_variation(a, b) == pytest.approx(1.0)

    def test_symmetry(self):
        a = _dist([60, 40])
        b = _dist([40, 60])
        assert total_variation(a, b) == total_variation(b, a)

    def test_known_value(self):
        a = _dist([60, 40])
        b = _dist([40, 60])
        assert total_variation(a, b) == pytest.approx(0.2)

    def test_width_mismatch_handled(self):
        a = _dist([100])
        b = _dist([50, 50])
        assert total_variation(a, b) == pytest.approx(0.5)


class TestChiSquare:
    def test_identical_high_p(self):
        d = _dist([5000, 3000, 2000], trials=100)
        stat, p, dof = chi_square_comparison(d, d)
        assert p == pytest.approx(1.0)
        assert stat == pytest.approx(0.0)

    def test_detects_gross_difference(self):
        a = _dist([8000, 2000], trials=100)
        b = _dist([2000, 8000], trials=100)
        _, p, _ = chi_square_comparison(a, b)
        assert p < 1e-10

    def test_sparse_tail_merged(self):
        """A 1-count tail cell should be merged, not crash or distort."""
        a = _dist([5000, 4000, 999, 1], trials=100)
        b = _dist([5001, 3999, 1000, 0], trials=100)
        stat, p, dof = chi_square_comparison(a, b)
        assert p > 0.5

    def test_degenerate_single_cell(self):
        a = _dist([100])
        stat, p, dof = chi_square_comparison(a, a)
        assert p == 1.0

    def test_all_tail_cells_sparse_collapse_to_two(self):
        """Merging must stop at two cells even when every tail is sparse."""
        a = _dist([1000, 2, 1, 1, 1])
        b = _dist([1001, 1, 1, 1, 1])
        stat, p, dof = chi_square_comparison(a, b)
        assert dof == 1  # merged down to a 2x2 table
        assert p > 0.5

    def test_min_expected_zero_disables_merging(self):
        a = _dist([5000, 4000, 999, 1], trials=100)
        b = _dist([5001, 3999, 1000, 0], trials=100)
        _, _, dof_merged = chi_square_comparison(a, b)
        _, _, dof_raw = chi_square_comparison(a, b, min_expected=0.0)
        assert dof_raw == dof_merged + 1

    def test_merging_preserves_totals(self):
        """The merged statistic must still see every observation: a gross
        difference hidden in the sparse tail is still detected."""
        a = _dist([10000, 3, 0], trials=100)
        b = _dist([10000, 0, 3], trials=100)
        _, p, _ = chi_square_comparison(a, b)
        # Sparse tail cells merge into one (3 vs 3): the difference lives
        # below the merge resolution, so this must NOT reject...
        assert p > 0.9
        # ...while the same counts at a non-mergeable scale must reject.
        a = _dist([10000, 3000, 0], trials=100)
        b = _dist([10000, 0, 3000], trials=100)
        _, p, _ = chi_square_comparison(a, b)
        assert p < 1e-10


class TestCompareDistributions:
    def test_same_scheme_two_seeds_indistinguishable(self):
        n = 1024
        a = simulate_batch(FullyRandomChoices(n, 3), n, 50, seed=1).distribution()
        b = simulate_batch(FullyRandomChoices(n, 3), n, 50, seed=2).distribution()
        report = compare_distributions(a, b)
        assert report.indistinguishable
        assert report.tv_distance < 0.01

    def test_paper_claim_double_vs_random(self):
        """The headline claim at test scale: double hashing vs fully random
        is statistically indistinguishable."""
        n = 2048
        a = simulate_batch(FullyRandomChoices(n, 3), n, 50, seed=3).distribution()
        b = simulate_batch(
            DoubleHashingChoices(n, 3), n, 50, seed=4
        ).distribution()
        report = compare_distributions(a, b)
        assert report.indistinguishable, (
            f"p={report.p_value}, dev={report.max_deviation_sigmas} sigmas"
        )

    def test_one_choice_vs_two_choice_distinguishable(self):
        """Sanity: the test must have power — one-choice is very different."""
        n = 1024
        a = simulate_one_choice(n, n, 50, seed=5).distribution()
        b = simulate_batch(FullyRandomChoices(n, 2), n, 50, seed=6).distribution()
        report = compare_distributions(a, b)
        assert not report.indistinguishable
        assert report.p_value < 1e-10

    def test_report_fields_populated(self):
        d = _dist([500, 300, 200], trials=10)
        report = compare_distributions(d, d)
        assert report.max_deviation == 0.0
        assert report.max_deviation_sigmas == 0.0
        assert report.dof >= 1


class TestCramersV:
    def test_identical_is_zero(self):
        d = _dist([5000, 3000, 2000], trials=100)
        assert cramers_v(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_single_cell_is_zero(self):
        d = _dist([100])
        assert cramers_v(d, d) == 0.0

    def test_gross_difference_is_large(self):
        a = _dist([8000, 2000], trials=100)
        b = _dist([2000, 8000], trials=100)
        assert cramers_v(a, b) > 0.5

    def test_scale_free(self):
        """Same proportions at 100x the sample: V unchanged (unlike chi2)."""
        a1 = _dist([80, 20], trials=1)
        b1 = _dist([70, 30], trials=1)
        a2 = _dist([8000, 2000], trials=100)
        b2 = _dist([7000, 3000], trials=100)
        assert cramers_v(a1, b1) == pytest.approx(cramers_v(a2, b2), rel=0.15)

    def test_bounded_unit_interval(self):
        a = _dist([100, 0])
        b = _dist([0, 100])
        assert 0.0 <= cramers_v(a, b) <= 1.0


class TestHolmCorrection:
    def test_empty_family(self):
        result = holm_correction([])
        assert result.adjusted == ()
        assert result.reject == ()
        assert not result.any_rejected

    def test_single_p_value_unchanged(self):
        result = holm_correction([0.03], alpha=0.05)
        assert result.adjusted == (pytest.approx(0.03),)
        assert result.reject == (True,)

    def test_known_textbook_family(self):
        # m=3: adjusted = (3*0.01, max(3*0.01, 2*0.02), max(prev, 1*0.3))
        result = holm_correction([0.01, 0.02, 0.30], alpha=0.05)
        assert result.adjusted[0] == pytest.approx(0.03)
        assert result.adjusted[1] == pytest.approx(0.04)
        assert result.adjusted[2] == pytest.approx(0.30)
        assert result.reject == (True, True, False)

    def test_step_down_stops_at_first_acceptance(self):
        # Smallest p fails its threshold: nothing is rejected even though
        # a *larger* p would pass a smaller divisor.
        result = holm_correction([0.03, 0.04], alpha=0.05)
        assert result.reject == (False, False)

    def test_adjusted_monotone_and_order_preserved(self):
        raw = [0.2, 0.001, 0.04, 0.7]
        result = holm_correction(raw, alpha=0.05)
        # Results come back in input order...
        assert result.adjusted[1] == min(result.adjusted)
        # ...and sorting by raw p gives monotone adjusted values.
        paired = sorted(zip(raw, result.adjusted))
        adj_sorted = [a for _, a in paired]
        assert adj_sorted == sorted(adj_sorted)

    def test_adjusted_clipped_at_one(self):
        result = holm_correction([0.9, 0.95, 0.99])
        assert all(a <= 1.0 for a in result.adjusted)

    def test_rejection_consistent_with_adjusted(self):
        raw = [0.001, 0.004, 0.02, 0.5, 0.8]
        result = holm_correction(raw, alpha=0.01)
        for adj, rej in zip(result.adjusted, result.reject):
            assert rej == (adj <= result.alpha)

    def test_family_wise_control_vs_raw(self):
        """20 true-null p-values around 0.02: raw 5% testing would reject,
        Holm must not reject any."""
        raw = [0.02 + 0.001 * k for k in range(20)]
        result = holm_correction(raw, alpha=0.05)
        assert not result.any_rejected

    def test_invalid_p_values_raise(self):
        with pytest.raises(ValueError):
            holm_correction([0.5, 1.5])
        with pytest.raises(ValueError):
            holm_correction([-0.1])
        with pytest.raises(ValueError):
            holm_correction([float("nan")])
