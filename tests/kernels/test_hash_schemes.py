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

from repro.errors import ConfigurationError
from repro.hashing.hash_functions import TabulationHash
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

    def test_stack_rows_match_single_tables_and_oracle(self):
        """One sweep over a (3, 2048) stack equals three single sweeps."""
        rng = np.random.default_rng(13)
        stack = rng.integers(0, 1 << 64, size=(3, 8, 256), dtype=np.uint64)
        flat = np.stack([flatten_tables(t) for t in stack])
        keys = np.concatenate([
            BOUNDARY_KEYS,
            rng.integers(0, 1 << 64, size=(1 << 15) + 77, dtype=np.uint64),
        ])
        out = tabulation_hash_u64(keys, flat)
        assert out.shape == (3, keys.size)
        probe = [*range(BOUNDARY_KEYS.size), *rng.integers(0, keys.size, 60)]
        for row, t, f in zip(out, stack, flat):
            assert np.array_equal(row, tabulation_hash_u64(keys, f))
            for i in probe:
                assert int(row[i]) == tabulation_hash_scalar(int(keys[i]), t)

    def test_stack_of_one_and_empty_batches(self, tables):
        flat = flatten_tables(tables)
        keys = np.arange(100, dtype=np.uint64)
        assert np.array_equal(
            tabulation_hash_u64(keys, flat[None])[0],
            tabulation_hash_u64(keys, flat),
        )
        assert tabulation_hash_u64(keys[:0], np.stack([flat, flat])).shape == (2, 0)
        assert tabulation_hash_u64(keys[:0], flat).shape == (0,)

    def test_flat_table_shape_checked(self, tables):
        flat = flatten_tables(tables)
        keys = np.arange(4, dtype=np.uint64)
        for bad in (flat[:1024], np.stack([flat[:1024]] * 2), flat[None, None]):
            with pytest.raises(ConfigurationError):
                tabulation_hash_u64(keys, bad)

    @pytest.mark.parametrize("n", [1 << 10, 65537, 1 << 32])
    def test_family_reduces_kernel_words_in_place(self, n):
        h = TabulationHash(n, np.random.default_rng(4))
        keys = np.concatenate([BOUNDARY_KEYS, np.arange(1000, dtype=np.uint64)])
        words = tabulation_hash_u64(keys, flatten_tables(h.tables))
        reduced = h.reduce(words)
        assert reduced.dtype == np.int64 and np.shares_memory(reduced, words)
        assert reduced.tolist() == [h.scalar(int(k)) for k in keys]


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
