"""Tests for the numpy-Generator adapter over pure-Python bit generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import simulate_batch, simulate_single_trial
from repro.hashing import DoubleHashingChoices
from repro.rng import Drand48, GeneratorAdapter, SplitMix64


class TestAdapterSurface:
    def test_integers_scalar(self):
        gen = GeneratorAdapter(Drand48(1))
        v = gen.integers(0, 10)
        assert 0 <= v < 10

    def test_integers_array_shape_and_range(self):
        gen = GeneratorAdapter(Drand48(2))
        out = gen.integers(5, 15, size=(3, 4), dtype=np.int64)
        assert out.shape == (3, 4)
        assert out.min() >= 5 and out.max() < 15
        assert out.dtype == np.int64

    def test_integers_single_arg_form(self):
        gen = GeneratorAdapter(SplitMix64(3))
        out = gen.integers(8, size=100)
        assert out.min() >= 0 and out.max() < 8

    def test_integers_endpoint(self):
        gen = GeneratorAdapter(SplitMix64(4))
        out = gen.integers(0, 1, size=200, endpoint=True)
        assert set(np.unique(out)) == {0, 1}

    def test_random_shapes(self):
        gen = GeneratorAdapter(SplitMix64(5))
        scalar = gen.random()
        assert 0.0 <= scalar < 1.0
        arr = gen.random((2, 3))
        assert arr.shape == (2, 3)
        assert (arr >= 0).all() and (arr < 1).all()

    def test_exponential(self):
        gen = GeneratorAdapter(Drand48(6))
        out = gen.exponential(2.0, size=5000)
        assert (out > 0).all()
        assert out.mean() == pytest.approx(2.0, rel=0.1)

    def test_permutation(self):
        gen = GeneratorAdapter(Drand48(7))
        perm = gen.permutation(20)
        assert sorted(perm.tolist()) == list(range(20))


class TestEnginesOnPurePythonRNG:
    def test_vectorized_engine_runs_on_drand48(self):
        """The paper's generator drives the full production engine."""
        rng = GeneratorAdapter(Drand48(42))
        batch = simulate_batch(
            DoubleHashingChoices(128, 3), 128, 4, seed=rng,
            check_invariants=True,
        )
        assert (batch.loads.sum(axis=1) == 128).all()

    def test_reference_engine_runs_on_splitmix(self):
        rng = GeneratorAdapter(SplitMix64(9))
        dist = simulate_single_trial(DoubleHashingChoices(64, 2), 64, seed=rng)
        assert dist.counts.sum() == 64

    def test_load_law_matches_numpy_rng(self):
        """Same engine + different raw bits -> same distribution (the
        ablation claim, run through the adapter path)."""
        drand = simulate_batch(
            DoubleHashingChoices(512, 3), 512, 20,
            seed=GeneratorAdapter(Drand48(10)),
        ).distribution()
        numpy_rng = simulate_batch(
            DoubleHashingChoices(512, 3), 512, 20, seed=11
        ).distribution()
        for load in range(3):
            assert drand.fraction_at(load) == pytest.approx(
                numpy_rng.fraction_at(load), abs=0.02
            )

    def test_deterministic_given_seed(self):
        a = simulate_batch(
            DoubleHashingChoices(64, 2), 64, 2,
            seed=GeneratorAdapter(Drand48(3)),
        )
        b = simulate_batch(
            DoubleHashingChoices(64, 2), 64, 2,
            seed=GeneratorAdapter(Drand48(3)),
        )
        assert np.array_equal(a.loads, b.loads)
