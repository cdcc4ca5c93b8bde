"""Tests for the unified block-RNG substrate (`repro.kernels.blockrng`)."""

import numpy as np

from repro.hashing import DoubleHashingChoices
from repro.kernels.blockrng import (
    CHOICE_BLOCK,
    EVENT_BLOCK,
    TIE_BITS,
    BlockedDraws,
    refill_choice_block,
    refill_event_block,
    splitmix64_block,
    trial_seed,
)
from repro.rng.splitmix import SplitMix64


class TestRefillOrder:
    def test_event_block_draw_order(self):
        # Exponentials first, uniforms second — replaying the two calls
        # on a twin generator must reproduce the refill exactly.
        rng = np.random.default_rng(7)
        twin = np.random.default_rng(7)
        expo, uni = refill_event_block(rng)
        assert np.array_equal(expo, twin.exponential(1.0, EVENT_BLOCK))
        assert np.array_equal(uni, twin.random(EVENT_BLOCK))
        # Both generators end in the same state.
        assert rng.integers(1 << 30) == twin.integers(1 << 30)

    def test_choice_block_draw_order(self):
        scheme = DoubleHashingChoices(128, 3)
        rng = np.random.default_rng(11)
        twin = np.random.default_rng(11)
        choices, ties = refill_choice_block(scheme, rng)
        assert np.array_equal(choices, scheme.batch(CHOICE_BLOCK, twin))
        assert np.array_equal(
            ties,
            twin.integers(0, 1 << TIE_BITS, size=(CHOICE_BLOCK, 3), dtype=np.int64),
        )
        assert ties.shape == (CHOICE_BLOCK, 3)
        assert int(ties.max()) < 1 << TIE_BITS

    def test_tie_keys_drawn_even_for_d1(self):
        # The stream must not depend on whether ties can occur.
        scheme = DoubleHashingChoices(128, 1)
        rng = np.random.default_rng(3)
        _, ties = refill_choice_block(scheme, rng)
        assert ties.shape == (CHOICE_BLOCK, 1)


class TestBlockedDraws:
    def test_starts_exhausted_and_refills_lazily(self):
        calls = []

        def refill():
            calls.append(len(calls))
            base = len(calls) * 100
            return (np.arange(base, base + 4),)

        cursor = BlockedDraws(4, refill)
        assert calls == []  # nothing drawn at construction
        assert [cursor.take()[0] for _ in range(4)] == [100, 101, 102, 103]
        assert calls == [0]
        assert cursor.take()[0] == 200  # second block, refilled on demand
        assert calls == [0, 1]

    def test_parallel_arrays_stay_aligned(self):
        cursor = BlockedDraws(
            2, lambda: (np.array([1, 2]), np.array([10, 20]))
        )
        assert cursor.take() == (1, 10)
        assert cursor.take() == (2, 20)


class TestTrialSeed:
    def test_pinned_values(self):
        # Pinned so the per-trial stream family can never silently change:
        # every shipped parallel-mode result is keyed by these.
        assert trial_seed(1, 0) == 8431846347943309920
        assert trial_seed(1, 1) == 4042681867674859579

    def test_matches_seed_sequence_spawn(self):
        root = 20140623
        parent = np.random.SeedSequence(root)
        children = parent.spawn(3)
        for i, child in enumerate(children):
            assert trial_seed(root, i) == int(
                child.generate_state(1, np.uint64)[0]
            )

    def test_distinct_across_trials_and_roots(self):
        keys = {trial_seed(r, i) for r in (1, 2) for i in range(64)}
        assert len(keys) == 128


class TestSplitmixBlock:
    def test_matches_scalar_generator(self):
        seed = trial_seed(99, 4)
        gen = SplitMix64(seed)
        expected = [gen.next_u64() for _ in range(40)]
        assert splitmix64_block(seed, 0, 40).tolist() == expected

    def test_offset_slices_same_stream(self):
        seed = 1234567
        full = splitmix64_block(seed, 0, 32)
        assert np.array_equal(splitmix64_block(seed, 10, 22), full[10:])
