"""Tests for the per-trial counter streams (`repro.kernels.blockrng`).

The supermarket schedule's draw order is tested with its drawer, in
``tests/kernels/test_supermarket_backends.py`` (``TestSchedule``).
"""

import numpy as np

from repro.kernels.blockrng import splitmix64_block, trial_seed
from repro.rng.splitmix import SplitMix64


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
