"""Tests for the choice schemes: interface, geometry, distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SchemeError
from repro.hashing import (
    BlockChoices,
    ChoiceScheme,
    DoubleHashingChoices,
    FullyRandomChoices,
    PartitionedDoubleHashing,
    PartitionedFullyRandom,
    make_scheme,
)
from repro.numtheory import sample_units

ALL_SCHEMES = [
    lambda n, d: FullyRandomChoices(n, d),
    lambda n, d: FullyRandomChoices(n, d, replacement=True),
    lambda n, d: DoubleHashingChoices(n, d),
    lambda n, d: PartitionedFullyRandom(n, d),
    lambda n, d: PartitionedDoubleHashing(n, d),
]
SCHEME_IDS = ["random", "random-replace", "double", "dleft-random", "dleft-double"]


@pytest.mark.parametrize("factory", ALL_SCHEMES, ids=SCHEME_IDS)
class TestCommonInterface:
    def test_batch_shape_and_range(self, factory, rng):
        scheme = factory(64, 4)
        out = scheme.batch(100, rng)
        assert out.shape == (100, 4)
        assert out.dtype == np.int64
        assert out.min() >= 0 and out.max() < 64

    def test_single_shape(self, factory, rng):
        scheme = factory(64, 4)
        assert factory(64, 4).single(rng).shape == (4,)

    def test_marginals_cover_all_bins(self, factory, rng):
        scheme = factory(16, 4)
        out = scheme.batch(4000, rng)
        assert set(np.unique(out)) == set(range(16))

    def test_describe_is_string(self, factory, rng):
        assert isinstance(factory(64, 4).describe(), str)

    def test_batches_are_random(self, factory, rng):
        scheme = factory(256, 4)
        a = scheme.batch(50, rng)
        b = scheme.batch(50, rng)
        assert not np.array_equal(a, b)


class TestValidation:
    def test_rejects_zero_bins(self):
        with pytest.raises(ConfigurationError):
            FullyRandomChoices(0, 2)

    def test_rejects_zero_choices(self):
        with pytest.raises(ConfigurationError):
            FullyRandomChoices(8, 0)

    def test_rejects_d_above_n(self):
        with pytest.raises(ConfigurationError):
            DoubleHashingChoices(4, 5)

    def test_partitioned_needs_divisibility(self):
        with pytest.raises(SchemeError):
            PartitionedFullyRandom(10, 4)

    def test_make_scheme_registry(self):
        assert isinstance(make_scheme("random", 16, 2), FullyRandomChoices)
        assert isinstance(make_scheme("double", 16, 2), DoubleHashingChoices)
        assert isinstance(
            make_scheme("double-left", 16, 4), PartitionedDoubleHashing
        )

    def test_make_scheme_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            make_scheme("nope", 16, 2)


class TestDistinctness:
    @pytest.mark.parametrize("n", [16, 17, 64, 97])
    def test_double_hashing_rows_distinct(self, n, rng):
        scheme = DoubleHashingChoices(n, min(5, n))
        out = scheme.batch(2000, rng)
        for row in out:
            assert len(set(row.tolist())) == scheme.d

    def test_fully_random_without_replacement_distinct(self, rng):
        out = FullyRandomChoices(8, 5).batch(3000, rng)
        for row in out:
            assert len(set(row.tolist())) == 5

    def test_with_replacement_allows_repeats(self, rng):
        out = FullyRandomChoices(4, 3, replacement=True).batch(2000, rng)
        has_repeat = any(len(set(r.tolist())) < 3 for r in out)
        assert has_repeat

    def test_distinct_flags(self):
        assert DoubleHashingChoices(16, 3).distinct
        assert FullyRandomChoices(16, 3).distinct
        assert not FullyRandomChoices(16, 3, replacement=True).distinct
        assert PartitionedDoubleHashing(16, 4).distinct


def _rejection_oracle(n, d, trials, rng):
    """Fully random rows without replacement, one Python row at a time:
    draw every row, then redraw the rows holding a repeated bin, in row
    order, until none remain."""
    rows = rng.integers(0, n, size=(trials, d), dtype=np.int64)
    bad = [t for t in range(trials) if len(set(rows[t].tolist())) < d]
    while bad:
        redraw = rng.integers(0, n, size=(len(bad), d), dtype=np.int64)
        for t, row in zip(bad, redraw):
            rows[t] = row
        bad = [t for t in bad if len(set(rows[t].tolist())) < d]
    return rows


class TestFullyRandomDrawStream:
    @pytest.mark.parametrize(
        "n,d", [(3, 3), (8, 5), (12, 7), (16, 2), (32, 8), (64, 4)]
    )
    def test_batch_matches_rejection_oracle(self, n, d):
        """The vectorized rejection loop redraws exactly the oracle's rows
        in the oracle's order, so rows and generator state both match."""
        got_rng = np.random.default_rng(n * 100 + d)
        want_rng = np.random.default_rng(n * 100 + d)
        got = FullyRandomChoices(n, d).batch(500, got_rng)
        want = _rejection_oracle(n, d, 500, want_rng)
        assert np.array_equal(got, want)
        assert got_rng.integers(0, 1 << 62) == want_rng.integers(0, 1 << 62)


class TestDoubleHashingStructure:
    def test_choices_form_arithmetic_progression(self, rng):
        scheme = DoubleHashingChoices(97, 5)
        out = scheme.batch(500, rng)
        gaps = (out[:, 1:] - out[:, :-1]) % 97
        # All consecutive gaps within a row equal the stride g.
        assert (gaps == gaps[:, :1]).all()

    def test_stride_is_unit(self, rng):
        g = sample_units(24, 800, rng)
        assert np.all(np.gcd(g, 24) == 1)

    def test_power_of_two_strides_odd(self, rng):
        g = sample_units(64, 800, rng)
        assert (g % 2 == 1).all()

    @pytest.mark.parametrize(
        "n, d",
        [
            (1, 1), (2, 2), (97, 5), (97, 97),  # n = 1 and primes
            (64, 4), (64, 64), (512, 4),  # powers of two
            (24, 4), (24, 24), (45, 7),  # composite
        ],
    )
    def test_batch_matches_broadcast_formula(self, n, d):
        """``batch`` builds the progressions by the stride recurrence; it
        equals ``(f + k·g) mod n`` on a twin generator's ``f`` and ``g``
        and leaves the two generators in the same state."""
        rng, twin = np.random.default_rng(n + d), np.random.default_rng(n + d)
        got = DoubleHashingChoices(n, d).batch(300, rng)
        if n == 1:
            want = np.zeros((300, d), dtype=np.int64)
        else:
            f = twin.integers(0, n, size=300, dtype=np.int64)
            g = sample_units(n, 300, twin)
            want = (f[:, None] + g[:, None] * np.arange(d)) % n
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_single_bin_table(self, rng):
        scheme = DoubleHashingChoices(1, 1)
        assert (scheme.batch(10, rng) == 0).all()

    def test_batch_planar_matches_batch(self):
        """The planar (d, trials) layout is the transposed row layout for
        the same generator state: double hashing's own recurrence (plain
        and d-left), and every scheme on the base class's transposing
        default."""
        for scheme in (
            DoubleHashingChoices(2, 2),
            DoubleHashingChoices(31, 3),
            DoubleHashingChoices(64, 3),
            PartitionedDoubleHashing(64, 4),
        ):
            rows = scheme.batch(300, np.random.default_rng(7))
            planes = scheme.batch_planar(300, np.random.default_rng(7))
            assert planes.shape == (scheme.d, 300)
            assert np.array_equal(planes, rows.T)
        for scheme in (
            FullyRandomChoices(16, 4),
            FullyRandomChoices(16, 4, replacement=True),
            PartitionedFullyRandom(64, 4),
            BlockChoices(64, 4),
        ):
            assert type(scheme).batch_planar is ChoiceScheme.batch_planar
            rows = scheme.batch(300, np.random.default_rng(7))
            planes = scheme.batch_planar(300, np.random.default_rng(7))
            assert planes.shape == (4, 300)
            assert np.array_equal(planes, rows.T)


class TestPartitionedStructure:
    @pytest.mark.parametrize("cls", [PartitionedFullyRandom, PartitionedDoubleHashing])
    def test_column_k_in_subtable_k(self, cls, rng):
        scheme = cls(64, 4)
        out = scheme.batch(1000, rng)
        for k in range(4):
            assert (out[:, k] >= 16 * k).all()
            assert (out[:, k] < 16 * (k + 1)).all()

    def test_subtable_size_one(self, rng):
        scheme = PartitionedDoubleHashing(4, 4)
        out = scheme.batch(10, rng)
        assert np.array_equal(out, np.tile([0, 1, 2, 3], (10, 1)))

    @pytest.mark.parametrize(
        "n", [4, 28, 64, 60], ids=["size1", "prime", "pow2", "composite"]
    )
    def test_double_is_the_broadcast_formula(self, n):
        """Same draws, values and generator state as ``(f + g·k) mod (n/d)``
        built with a broadcast multiply, plus subtable ``k``'s offset."""
        d, trials = 4, 500
        size = n // d
        scheme = PartitionedDoubleHashing(n, d)
        twin = np.random.default_rng(3)
        if size == 1:
            local = np.zeros((trials, d), dtype=np.int64)
        else:
            f = twin.integers(0, size, size=trials, dtype=np.int64)
            g = sample_units(size, trials, twin)
            local = (f[:, None] + g[:, None] * np.arange(d)) % size
        expected = local + np.arange(d) * size
        for planar in (False, True):
            rng = np.random.default_rng(3)
            if planar:
                out = scheme.batch_planar(trials, rng).T
            else:
                out = scheme.batch(trials, rng)
            assert np.array_equal(out, expected)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_partitioned_double_progression_within_subtables(self, rng):
        scheme = PartitionedDoubleHashing(40, 4)  # subtables of 10
        out = scheme.batch(500, rng)
        local = out - np.arange(4) * 10
        gaps = (local[:, 1:] - local[:, :-1]) % 10
        assert (gaps == gaps[:, :1]).all()


class TestUniformityStatistics:
    @pytest.mark.parametrize("factory", ALL_SCHEMES, ids=SCHEME_IDS)
    def test_overall_marginal_uniform(self, factory, rng):
        n, d, samples = 20, 4, 30000
        scheme = factory(n, d)
        out = scheme.batch(samples, rng)
        counts = np.bincount(out.ravel(), minlength=n)
        expected = samples * d / n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi2_{0.9995, df=19} ~ 46; generous to keep flake rate ~0.
        assert chi2 < 55, f"chi2={chi2}, counts={counts}"


@given(
    n_exp=st.integers(min_value=2, max_value=8),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_property_double_hashing_rows_distinct_any_geometry(n_exp, d, seed):
    """Double-hashed choices are distinct for every n, d <= n (unit stride)."""
    n = 2**n_exp
    if d > n:
        return
    scheme = DoubleHashingChoices(n, d)
    out = scheme.batch(50, np.random.default_rng(seed))
    for row in out:
        assert len(set(row.tolist())) == d


@given(
    n=st.integers(min_value=3, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_property_arbitrary_modulus_strides_are_units(n, seed):
    """For arbitrary (possibly composite) n, sampled strides are coprime."""
    g = sample_units(n, 40, np.random.default_rng(seed))
    assert np.all(np.gcd(g, n) == 1)
