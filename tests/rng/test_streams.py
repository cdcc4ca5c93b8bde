"""Tests for deterministic seed-stream spawning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng import default_generator, spawn_seeds


class TestDefaultGenerator:
    def test_none_gives_generator(self):
        assert isinstance(default_generator(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = default_generator(123).integers(0, 1000, 10)
        b = default_generator(123).integers(0, 1000, 10)
        assert (a == b).all()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(5)
        assert default_generator(gen) is gen

    def test_seedsequence_accepted(self):
        seq = np.random.SeedSequence(77)
        gen = default_generator(seq)
        assert isinstance(gen, np.random.Generator)


class TestSpawn:
    def test_spawn_count(self):
        assert len(spawn_seeds(1, 5)) == 5

    def test_spawn_deterministic(self):
        a = [np.random.default_rng(s) for s in spawn_seeds(42, 3)]
        b = [np.random.default_rng(s) for s in spawn_seeds(42, 3)]
        for ga, gb in zip(a, b):
            assert (ga.integers(0, 10**9, 5) == gb.integers(0, 10**9, 5)).all()

    def test_children_mutually_independent_keys(self):
        states = {tuple(s.generate_state(4)) for s in spawn_seeds(9, 16)}
        assert len(states) == 16

    def test_children_produce_distinct_streams(self):
        gens = [np.random.default_rng(s) for s in spawn_seeds(3, 4)]
        draws = [tuple(g.integers(0, 2**62, 4)) for g in gens]
        assert len(set(draws)) == 4

    def test_zero_count(self):
        assert spawn_seeds(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, -1)
