"""Tests for pairwise-uniformity verification (paper Section 1, final remark)."""

from __future__ import annotations

import numpy as np

from repro.hashing import (
    DoubleHashingChoices,
    FullyRandomChoices,
    empirical_pairwise_stats,
    is_pairwise_uniform,
)
from repro.hashing.base import ChoiceScheme


class _BrokenScheme(ChoiceScheme):
    """Deliberately non-uniform: always an adjacent pair starting at f.

    Marginals are uniform but pairs are perfectly correlated (stride fixed
    at 1), so the pairwise check must reject it.
    """

    def batch(self, trials, rng):
        f = rng.integers(0, self.n_bins, size=trials, dtype=np.int64)
        ks = np.arange(self.d, dtype=np.int64)
        return (f[:, None] + ks) % self.n_bins


class TestExactEnumeration:
    def test_double_hashing_pairs_exactly_uniform_prime_modulus(self):
        """Enumerate all (f, g) for prime n: every ordered distinct pair of
        bins appears equally often among (h_i, h_j), the defining property."""
        n, d = 7, 3
        counts = np.zeros((n, n), dtype=int)
        for f in range(n):
            for g in range(1, n):
                h = [(f + k * g) % n for k in range(d)]
                for i in range(d):
                    for j in range(d):
                        if i != j:
                            counts[h[i], h[j]] += 1
        off_diagonal = counts[~np.eye(n, dtype=bool)]
        assert np.all(off_diagonal == off_diagonal[0])
        assert np.all(np.diag(counts) == 0)

    def test_double_hashing_marginals_exactly_uniform(self):
        n, d = 8, 3  # power of two: strides are odd
        counts = np.zeros((d, n), dtype=int)
        for f in range(n):
            for g in range(1, n, 2):
                for k in range(d):
                    counts[k, (f + k * g) % n] += 1
        assert np.all(counts == counts[0, 0])


class TestEmpirical:
    def test_double_hashing_passes_prime_modulus(self, rng):
        scheme = DoubleHashingChoices(17, 3)
        assert is_pairwise_uniform(scheme, 60000, rng)

    def test_double_hashing_power_of_two_fails_strict_pairwise(self, rng):
        """With n = 2^k the difference of choices two apart is always even,
        so *strict* pairwise uniformity fails (paper footnote 5: composite
        moduli give uniformity over phi(n)-many admissible pairs instead)."""
        scheme = DoubleHashingChoices(16, 3)
        assert not is_pairwise_uniform(scheme, 60000, rng)

    def test_fully_random_without_replacement_passes(self, rng):
        scheme = FullyRandomChoices(17, 3)
        assert is_pairwise_uniform(scheme, 60000, rng)

    def test_broken_scheme_fails(self, rng):
        scheme = _BrokenScheme(17, 3)
        assert not is_pairwise_uniform(scheme, 60000, rng)

    def test_stats_shapes(self, rng):
        stats = empirical_pairwise_stats(DoubleHashingChoices(8, 3), 5000, rng)
        assert stats.marginal.shape == (3, 8)
        assert stats.pair_counts.shape == (8, 8)
        assert stats.samples == 5000

    def test_distinct_scheme_has_empty_diagonal(self, rng):
        stats = empirical_pairwise_stats(DoubleHashingChoices(8, 3), 3000, rng)
        assert np.all(np.diag(stats.pair_counts) == 0)

    def test_with_replacement_has_diagonal_mass(self, rng):
        stats = empirical_pairwise_stats(
            FullyRandomChoices(4, 3, replacement=True), 3000, rng
        )
        assert np.diag(stats.pair_counts).sum() > 0

    def test_marginal_error_decreases_with_samples(self, rng):
        scheme = DoubleHashingChoices(8, 2)
        small = empirical_pairwise_stats(scheme, 500, rng).max_marginal_error
        large = empirical_pairwise_stats(scheme, 50000, rng).max_marginal_error
        assert large < small
