"""Tests for the vectorized hash-scheme kernel primitives.

Exactness contract: the numpy kernels return bit-identical output to
the pure-Python scalar oracles in ``repro.kernels.hash_schemes`` for
every uint64 key, including the boundary keys 0 and 2^64 - 1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    flatten_tables,
    pairwise_affine_scalar,
    pairwise_affine_u64,
    tabulation_hash_scalar,
    tabulation_hash_u64,
)
from repro.kernels.hash_schemes import MERSENNE_P

BOUNDARY_KEYS = np.array(
    [0, 1, 2, 255, 256, (1 << 32) - 1, 1 << 32, (1 << 63) - 1,
     1 << 63, (1 << 64) - 1, MERSENNE_P - 1, MERSENNE_P, MERSENNE_P + 1],
    dtype=np.uint64,
)

@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(7)
    return rng.integers(0, 1 << 64, size=(8, 256), dtype=np.uint64)


class TestTabulationKernel:
    def test_matches_scalar_oracle_on_boundary_keys(self, tables):
        out = tabulation_hash_u64(BOUNDARY_KEYS, flatten_tables(tables))
        expect = [tabulation_hash_scalar(int(k), tables) for k in BOUNDARY_KEYS]
        assert out.tolist() == expect

    def test_matches_scalar_oracle_on_random_keys(self, tables):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64)
        out = tabulation_hash_u64(keys, flatten_tables(tables))
        idx = rng.integers(0, keys.size, size=200)
        for i in idx:
            assert int(out[i]) == tabulation_hash_scalar(int(keys[i]), tables)

    def test_crosses_block_boundary(self, tables):
        # Exceed the internal gather block so the loop runs > 1 iteration.
        keys = np.arange(1 << 15 | 11, dtype=np.uint64)
        flat = flatten_tables(tables)
        out = tabulation_hash_u64(keys, flat)
        small = tabulation_hash_u64(keys[: 1 << 10], flat)
        assert np.array_equal(out[: 1 << 10], small)

    def test_int64_keys_are_reinterpreted_not_converted(self, tables):
        keys = np.array([-1, -(1 << 62)], dtype=np.int64)
        out = tabulation_hash_u64(keys, flatten_tables(tables))
        assert int(out[0]) == tabulation_hash_scalar((1 << 64) - 1, tables)

    def test_flatten_tables_shape_checked(self, tables):
        with pytest.raises(ValueError):
            flatten_tables(tables[:4])


class TestPairwiseKernel:
    A, B = 0x1234_5678_9ABC_DEF1 % MERSENNE_P, 987654321

    def test_matches_scalar_oracle_on_boundary_keys(self):
        out = pairwise_affine_u64(BOUNDARY_KEYS, self.A, self.B)
        expect = [
            pairwise_affine_scalar(int(k), self.A, self.B)
            for k in BOUNDARY_KEYS
        ]
        assert out.tolist() == expect

    def test_output_strictly_below_p(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64)
        out = pairwise_affine_u64(keys, MERSENNE_P - 1, MERSENNE_P - 1)
        assert int(out.max()) < MERSENNE_P

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.integers(1, MERSENNE_P - 1),
        b=st.integers(0, MERSENNE_P - 1),
        key=st.integers(0, (1 << 64) - 1),
    )
    def test_property_matches_oracle_any_parameters(self, a, b, key):
        out = pairwise_affine_u64(np.array([key], dtype=np.uint64), a, b)
        assert int(out[0]) == pairwise_affine_scalar(key, a, b)

    def test_parameter_validation(self):
        keys = np.zeros(1, dtype=np.uint64)
        with pytest.raises(ValueError):
            pairwise_affine_u64(keys, 0, 0)
        with pytest.raises(ValueError):
            pairwise_affine_u64(keys, MERSENNE_P, 0)
        with pytest.raises(ValueError):
            pairwise_affine_u64(keys, 1, MERSENNE_P)
