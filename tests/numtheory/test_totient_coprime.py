"""Tests for factorization, Euler's totient, and unit sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numtheory import (
    count_units,
    euler_phi,
    factorize,
    sample_units,
    units_mod,
)


class TestFactorize:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, {}),
            (2, {2: 1}),
            (360, {2: 3, 3: 2, 5: 1}),
            (2**14, {2: 14}),
            (16411, {16411: 1}),
            (1000003 * 1000033, {1000003: 1, 1000033: 1}),
        ],
    )
    def test_known_factorizations(self, n, expected):
        assert factorize(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_product_of_factors_reconstructs(self, n):
        product = 1
        for p, e in factorize(n).items():
            product *= p**e
        assert product == n


class TestEulerPhi:
    def test_small_values_by_enumeration(self):
        for n in range(1, 200):
            brute = sum(1 for g in range(1, n + 1) if math.gcd(g, n) == 1)
            assert euler_phi(n) == brute, f"phi({n})"

    def test_power_of_two(self):
        assert euler_phi(2**14) == 2**13

    def test_prime(self):
        assert euler_phi(16411) == 16410

    def test_multiplicative_on_coprimes(self):
        assert euler_phi(7 * 16) == euler_phi(7) * euler_phi(16)

    def test_count_units_alias(self):
        assert count_units(360) == euler_phi(360)


class TestUnits:
    def test_units_mod_prime_is_everything(self):
        units = units_mod(13)
        assert list(units) == list(range(1, 13))

    def test_units_mod_power_of_two_is_odds(self):
        units = units_mod(16)
        assert list(units) == [1, 3, 5, 7, 9, 11, 13, 15]

    def test_units_mod_count_matches_phi(self):
        for n in (12, 30, 100, 128):
            assert len(units_mod(n)) == euler_phi(n)


class TestSampleUnits:
    @pytest.mark.parametrize("n", [2, 16, 1024, 13, 16411, 12, 360, 1000])
    def test_samples_are_units(self, n, rng):
        out = sample_units(n, 500, rng)
        assert np.all(np.gcd(out, n) == 1)
        assert out.min() >= 1 and out.max() < max(n, 2)

    def test_shape_tuple(self, rng):
        out = sample_units(64, (3, 5), rng)
        assert out.shape == (3, 5)

    def test_modulus_two_always_one(self, rng):
        assert (sample_units(2, 20, rng) == 1).all()

    def test_uniform_over_units_chi2(self, rng):
        n = 12  # units: 1, 5, 7, 11
        out = sample_units(n, 8000, rng)
        counts = np.bincount(out, minlength=n)
        units = [1, 5, 7, 11]
        observed = counts[units]
        expected = 8000 / 4
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 16.27  # chi2_{0.999, df=3}

    def test_rejects_tiny_modulus(self, rng):
        with pytest.raises(ValueError):
            sample_units(1, 5, rng)

    def test_small_composite_uses_cached_table(self, rng):
        """Small composite moduli sample from a cached unit table (one
        bounded draw, no rejection loop); results must still be exactly
        the units."""
        from repro.numtheory.coprime import _UNIT_TABLE_MAX, _unit_table

        _unit_table.cache_clear()
        out = sample_units(360, 2000, rng)
        assert _unit_table.cache_info().misses == 1
        sample_units(360, 10, rng)
        assert _unit_table.cache_info().hits == 1
        assert np.all(np.gcd(out, 360) == 1)
        assert set(np.unique(out)) <= set(units_mod(360).tolist())
        assert _UNIT_TABLE_MAX >= 360

    def test_cached_table_is_immutable(self):
        from repro.numtheory.coprime import _unit_table

        table = _unit_table(100)
        with pytest.raises(ValueError):
            table[0] = 99

    def test_large_composite_falls_back_to_rejection(self, rng):
        from repro.numtheory.coprime import _UNIT_TABLE_MAX

        n = 6 * 1024  # composite, above the table cap
        assert n > _UNIT_TABLE_MAX
        out = sample_units(n, 300, rng)
        assert np.all(np.gcd(out, n) == 1)
