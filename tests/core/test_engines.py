"""Tests for the balls-and-bins engines: reference, vectorized, and their
distributional agreement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import simulate_batch, simulate_single_trial
from repro.core.balls_bins import place_ball
from repro.errors import ConfigurationError
from repro.hashing import DoubleHashingChoices, FullyRandomChoices


class TestPlaceBall:
    def test_picks_least_loaded(self, rng):
        loads = np.array([5, 0, 3], dtype=np.int64)
        chosen = place_ball(loads, np.array([0, 1, 2]), rng)
        assert chosen == 1
        assert loads[1] == 1

    def test_left_tie_break_picks_first(self, rng):
        loads = np.array([2, 2, 2], dtype=np.int64)
        chosen = place_ball(loads, np.array([2, 0, 1]), rng, tie_break="left")
        assert chosen == 2

    def test_random_tie_break_covers_all_ties(self, rng):
        picks = set()
        for _ in range(200):
            loads = np.zeros(3, dtype=np.int64)
            picks.add(place_ball(loads, np.array([0, 1, 2]), rng))
        assert picks == {0, 1, 2}

    def test_mutates_only_chosen(self, rng):
        loads = np.array([1, 0, 2], dtype=np.int64)
        place_ball(loads, np.array([0, 1]), rng)
        assert loads.tolist() == [1, 1, 2]


class TestReferenceEngine:
    def test_conservation(self):
        dist = simulate_single_trial(FullyRandomChoices(32, 3), 100, seed=1)
        total = sum(i * c for i, c in enumerate(dist.counts))
        assert total == 100

    def test_zero_balls(self):
        dist = simulate_single_trial(FullyRandomChoices(8, 2), 0, seed=1)
        assert dist.counts[0] == 8
        assert dist.max_load == 0

    def test_return_loads_shape(self):
        loads = simulate_single_trial(
            FullyRandomChoices(16, 2), 40, seed=2, return_loads=True
        )
        assert loads.shape == (16,)
        assert loads.sum() == 40

    def test_negative_balls_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_single_trial(FullyRandomChoices(8, 2), -1)

    def test_two_choices_beats_one_choice_typically(self):
        """Power of two choices: max load with d=2 should usually be lower
        than the single-choice max load at the same scale."""
        n = 512
        two = simulate_single_trial(FullyRandomChoices(n, 2), n, seed=3)
        one = simulate_single_trial(FullyRandomChoices(n, 1), n, seed=3)
        assert two.max_load <= one.max_load


class TestVectorizedEngine:
    def test_conservation_checked_internally(self):
        simulate_batch(
            DoubleHashingChoices(64, 3), 200, trials=10, seed=4,
            check_invariants=True,
        )

    def test_loads_shape(self):
        batch = simulate_batch(FullyRandomChoices(32, 2), 50, trials=7, seed=5)
        assert batch.loads.shape == (7, 32)
        assert (batch.loads.sum(axis=1) == 50).all()

    def test_trials_are_distinct(self):
        batch = simulate_batch(FullyRandomChoices(64, 2), 64, trials=5, seed=6)
        assert len({tuple(row) for row in batch.loads}) > 1

    def test_reproducible(self):
        a = simulate_batch(DoubleHashingChoices(32, 3), 64, 4, seed=7)
        b = simulate_batch(DoubleHashingChoices(32, 3), 64, 4, seed=7)
        assert np.array_equal(a.loads, b.loads)

    def test_block_size_does_not_change_distribution(self):
        """Different RNG blocking gives different streams but the same law;
        compare aggregate fractions at matched scale."""
        kwargs = dict(n_balls=256, trials=60, seed=8)
        a = simulate_batch(
            DoubleHashingChoices(256, 3), block=16, **kwargs
        ).distribution()
        b = simulate_batch(
            DoubleHashingChoices(256, 3), block=300, **kwargs
        ).distribution()
        assert abs(a.fraction_at(1) - b.fraction_at(1)) < 0.02

    def test_invalid_tie_break(self):
        with pytest.raises(ConfigurationError):
            simulate_batch(FullyRandomChoices(8, 2), 8, 1, tie_break="up")

    def test_invalid_block(self):
        with pytest.raises(ConfigurationError):
            simulate_batch(FullyRandomChoices(8, 2), 8, 1, block=0)

    def test_invalid_trials(self):
        with pytest.raises(ConfigurationError):
            simulate_batch(FullyRandomChoices(8, 2), 8, 0)

    def test_n_balls_overflowing_int32_rejected(self):
        """The int32 load table caps a trial at 2**31 - 1 balls; asking for
        more must fail loudly up front, naming the remedy."""
        with pytest.raises(ConfigurationError, match="int64"):
            simulate_batch(FullyRandomChoices(8, 2), 2**31, 1)

    def test_one_choice_degenerate(self):
        batch = simulate_batch(FullyRandomChoices(16, 1), 64, 5, seed=9)
        assert (batch.loads.sum(axis=1) == 64).all()


class TestCrossEngineAgreement:
    """The vectorized engine must match the reference engine in law."""

    @pytest.mark.parametrize("scheme_cls", [FullyRandomChoices, DoubleHashingChoices])
    def test_load_fractions_agree(self, scheme_cls):
        n, trials = 256, 60
        ref_counts = np.zeros(10)
        for t in range(trials):
            dist = simulate_single_trial(scheme_cls(n, 3), n, seed=1000 + t)
            ref_counts[: len(dist.counts)] += dist.counts
        ref_frac = ref_counts / (trials * n)

        vec = simulate_batch(scheme_cls(n, 3), n, trials, seed=77).distribution()
        for load in range(4):
            assert vec.fraction_at(load) == pytest.approx(
                ref_frac[load], abs=0.02
            ), f"load {load}"

    def test_left_tie_break_agrees(self):
        n, trials = 128, 60
        ref_counts = np.zeros(10)
        for t in range(trials):
            dist = simulate_single_trial(
                FullyRandomChoices(n, 3), n, seed=2000 + t, tie_break="left"
            )
            ref_counts[: len(dist.counts)] += dist.counts
        ref_frac = ref_counts / (trials * n)
        vec = simulate_batch(
            FullyRandomChoices(n, 3), n, trials, seed=88, tie_break="left"
        ).distribution()
        for load in range(3):
            assert vec.fraction_at(load) == pytest.approx(ref_frac[load], abs=0.03)


@given(
    n_exp=st.integers(min_value=2, max_value=7),
    d=st.integers(min_value=1, max_value=4),
    balls_factor=st.floats(min_value=0.1, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_property_ball_conservation(n_exp, d, balls_factor, seed):
    """Every trial places exactly n_balls balls, for any geometry."""
    n = 2**n_exp
    if d > n:
        return
    m = int(n * balls_factor)
    batch = simulate_batch(
        DoubleHashingChoices(n, d), m, trials=3, seed=seed,
        check_invariants=True,
    )
    assert (batch.loads.sum(axis=1) == m).all()
    assert (batch.loads >= 0).all()


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_property_max_load_at_least_ceiling_mean(seed):
    """Max load >= ceil(m/n) by pigeonhole."""
    batch = simulate_batch(FullyRandomChoices(16, 2), 50, trials=4, seed=seed)
    assert (batch.loads.max(axis=1) >= int(np.ceil(50 / 16))).all()
