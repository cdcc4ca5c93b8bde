"""Property tests: vectorized hash families match their scalar oracles.

Every family exposing a ``scalar`` method must agree with its batched
``__call__`` bit for bit — for random keys, the boundary keys 0 and
2^64 - 1, and both power-of-two and prime table sizes.  This is the
contract that lets the fused kernels trust the vectorized paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    PairwiseAffineHash,
    TabulationHash,
    UniversalModPrimeHash,
)
from repro.hashing.keyed import (
    DoubleHashedKeyed,
    IndependentKeyed,
    KeyedStreamScheme,
)

FAMILIES = [PairwiseAffineHash, TabulationHash, UniversalModPrimeHash]
FAMILY_IDS = ["pairwise", "tabulation", "universal"]
# One pow2 size, one prime size; both exercised for every family.
SIZES = [1 << 10, 65537]

BOUNDARY_KEYS = [0, 1, 255, 256, (1 << 32) - 1, 1 << 32,
                 (1 << 63) - 1, (1 << 64) - 1]


@pytest.mark.parametrize("cls", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", SIZES, ids=["pow2", "prime"])
class TestVectorizedMatchesScalar:
    def test_boundary_keys(self, cls, n):
        h = cls(n, np.random.default_rng(5))
        keys = np.array(BOUNDARY_KEYS, dtype=np.uint64)
        out = np.asarray(h(keys))
        for i, k in enumerate(BOUNDARY_KEYS):
            assert int(out[i]) == h.scalar(k), hex(k)

    def test_random_key_block(self, cls, n):
        rng = np.random.default_rng(6)
        h = cls(n, rng)
        keys = rng.integers(0, 1 << 63, size=20_000, dtype=np.int64)
        out = np.asarray(h(keys))
        assert out.min() >= 0 and out.max() < n
        for i in rng.integers(0, keys.size, size=100):
            assert int(out[i]) == h.scalar(int(keys[i]))

    @settings(max_examples=40, deadline=None)
    @given(key=st.integers(0, (1 << 64) - 1), seed=st.integers(0, 1 << 20))
    def test_property_any_key_any_draw(self, cls, n, key, seed):
        h = cls(n, np.random.default_rng(seed))
        out = np.asarray(h(np.array([key], dtype=np.uint64)))
        assert int(out[0]) == h.scalar(key)


def _double_hashed_formula(keyed, keys):
    """``(f + k·stride) mod n`` from ``keyed``'s own hashes, with a
    broadcast multiply and a modulo: the definition its recurrence builds."""
    n = keyed.n_bins
    f = np.asarray(keyed._f(keys), dtype=np.int64)
    g = np.asarray(keyed._g(keys), dtype=np.int64)
    stride = 2 * g + 1 if n & (n - 1) == 0 else g + 1
    return (f[:, None] + stride[:, None] * np.arange(keyed.d)) % n


class TestPlanarIdentity:
    """``choices_planar`` is exactly ``choices(keys).T`` for every scheme;
    keyed double hashing's both layouts equal its broadcast formula."""

    @pytest.mark.parametrize("family", ["multiply-shift", "tabulation",
                                        "pairwise", "universal"])
    @pytest.mark.parametrize("n", SIZES, ids=["pow2", "prime"])
    def test_independent_keyed(self, family, n):
        if family == "multiply-shift" and n != 1 << 10:
            pytest.skip("multiply-shift needs power-of-two n")
        keyed = IndependentKeyed(
            n, 3, family=family, rng=np.random.default_rng(8)
        )
        keys = np.random.default_rng(9).integers(
            0, 1 << 63, size=5000, dtype=np.int64
        )
        assert np.array_equal(
            keyed.choices_planar(keys), keyed.choices(keys).T
        )

    @pytest.mark.parametrize("family", ["multiply-shift", "tabulation",
                                        "pairwise"])
    @pytest.mark.parametrize("n", SIZES, ids=["pow2", "prime"])
    def test_double_hashed_keyed(self, family, n):
        if family == "multiply-shift" and n != 1 << 10:
            pytest.skip("multiply-shift needs power-of-two n")
        keyed = DoubleHashedKeyed(
            n, 4, family=family, rng=np.random.default_rng(10)
        )
        keys = np.random.default_rng(11).integers(
            0, 1 << 63, size=5000, dtype=np.int64
        )
        expected = _double_hashed_formula(keyed, keys)
        assert np.array_equal(keyed.choices(keys), expected)
        assert np.array_equal(keyed.choices_planar(keys), expected.T)

    @pytest.mark.parametrize("n", [1, 2, 13])
    def test_double_hashed_keyed_small_n(self, n):
        """Small tables hit every wrap of the recurrence (a plane sum of
        exactly ``n`` included); ``n = 1`` takes the no-hash branch."""
        keyed = DoubleHashedKeyed(
            n, min(n, 4), family="tabulation", rng=np.random.default_rng(10)
        )
        keys = np.random.default_rng(11).integers(
            0, 1 << 63, size=2000, dtype=np.int64
        )
        expected = _double_hashed_formula(keyed, keys)
        assert np.array_equal(keyed.choices(keys), expected)
        assert np.array_equal(keyed.choices_planar(keys), expected.T)

    def test_stream_scheme_planar_same_key_draw(self):
        keyed = IndependentKeyed(
            1 << 10, 3, family="pairwise", rng=np.random.default_rng(12)
        )
        scheme = KeyedStreamScheme(keyed)
        a = scheme.batch(2000, np.random.default_rng(13))
        b = scheme.batch_planar(2000, np.random.default_rng(13))
        assert np.array_equal(b, a.T)

    @settings(max_examples=25, deadline=None)
    @given(
        n_exp=st.integers(4, 12),
        d=st.integers(2, 5),
        seed=st.integers(0, 1 << 16),
    )
    def test_property_double_hashed_planar_any_geometry(self, n_exp, d, seed):
        keyed = DoubleHashedKeyed(
            1 << n_exp, d, family="tabulation",
            rng=np.random.default_rng(seed),
        )
        keys = np.random.default_rng(seed + 1).integers(
            0, 1 << 63, size=500, dtype=np.int64
        )
        assert np.array_equal(
            keyed.choices_planar(keys), _double_hashed_formula(keyed, keys).T
        )
