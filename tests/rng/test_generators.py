"""Tests for SplitMix64 and the shared bit-generator protocol.

SplitMix64 is checked against published reference vectors (Steele et
al.'s splitmix64.c outputs for seed 0).
"""

from __future__ import annotations

import pytest

from repro.rng import Drand48, SplitMix64
from repro.rng.splitmix import splitmix64_mix

# Reference outputs of splitmix64.c with state = 0.
SPLITMIX_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


class TestSplitMix64:
    def test_reference_vector(self):
        gen = SplitMix64(0)
        assert [gen.next_u64() for _ in range(3)] == SPLITMIX_SEED0

    def test_mix_is_bijective_sample(self):
        outputs = {splitmix64_mix(i) for i in range(10000)}
        assert len(outputs) == 10000

    def test_seed_reduced_mod_2_64(self):
        assert SplitMix64(2**64 + 5).state == SplitMix64(5).state

    def test_distinct_seeds_distinct_streams(self):
        a = [SplitMix64(1).next_u64() for _ in range(1)]
        b = [SplitMix64(2).next_u64() for _ in range(1)]
        assert a != b


@pytest.mark.parametrize(
    "factory",
    [lambda: Drand48(4), lambda: SplitMix64(4)],
    ids=["drand48", "splitmix"],
)
class TestSharedProtocol:
    def test_random_in_unit_interval(self, factory):
        gen = factory()
        values = [gen.random() for _ in range(2000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_random_mean(self, factory):
        gen = factory()
        mean = sum(gen.random() for _ in range(20000)) / 20000
        assert abs(mean - 0.5) < 0.02

    def test_integers_uniformity(self, factory):
        gen = factory()
        counts = [0] * 8
        for _ in range(8000):
            counts[gen.integers(0, 8)] += 1
        assert min(counts) > 800  # each cell near 1000

    def test_integers_array_shape(self, factory):
        out = factory().integers_array(0, 50, 64)
        assert out.shape == (64,)
        assert out.min() >= 0 and out.max() < 50

    def test_random_array_shape(self, factory):
        out = factory().random_array(32)
        assert out.shape == (32,)
        assert (out >= 0).all() and (out < 1).all()
