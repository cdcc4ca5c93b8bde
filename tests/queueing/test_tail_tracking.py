"""Tests for queue-length tail tracking and left tie-breaking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fluid import equilibrium_tail
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.queueing import SupermarketRun, simulate_supermarket


class TestTailTracking:
    def test_disabled_by_default(self):
        res = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(64, 2), 0.5, 50.0, seed=1,
        )])[0]
        assert res.tail_fractions is None

    def test_tails_structure(self):
        res = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(128, 2), 0.7, 150.0, burn_in=30.0, seed=2,
            track_tails=True,
        )])[0]
        tails = res.tail_fractions
        assert tails is not None
        assert tails[0] == pytest.approx(1.0)
        assert (np.diff(tails) <= 1e-9).all()
        assert (tails >= 0).all()

    def test_tails_match_fluid_equilibrium(self):
        """Time-averaged >= i fractions converge to π_i = λ^((d^i−1)/(d−1))."""
        res = simulate_supermarket([SupermarketRun(
            DoubleHashingChoices(512, 3), 0.9, 400.0, burn_in=100.0, seed=3,
            track_tails=True,
        )])[0]
        eq = equilibrium_tail(0.9, 3, 6)
        for i in range(1, 4):
            assert res.tail_fractions[i] == pytest.approx(eq[i], abs=0.03)

    def test_tail1_is_utilization(self):
        """Fraction of busy queues ~ λ (work conservation)."""
        res = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(256, 2), 0.6, 300.0, burn_in=60.0, seed=4,
            track_tails=True,
        )])[0]
        assert res.tail_fractions[1] == pytest.approx(0.6, abs=0.03)

    def test_mean_queue_consistency(self):
        """Sum of tail fractions (i >= 1) equals the mean queue length."""
        res = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(256, 2), 0.7, 300.0, burn_in=60.0, seed=5,
            track_tails=True,
        )])[0]
        assert res.tail_fractions[1:].sum() == pytest.approx(
            res.mean_queue_length, rel=0.02
        )


class TestLeftTieBreak:
    def test_runs_and_matches_random_tie_break_in_law(self):
        """With unpartitioned uniform choices, left vs random tie-breaking
        barely shifts the mean sojourn (ties are rare at moderate load)."""
        kwargs = dict(lam=0.8, sim_time=200.0, burn_in=40.0)
        a = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(256, 2), seed=6, tie_break="random", **kwargs,
        )])[0].mean_sojourn_time
        b = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(256, 2), seed=7, tie_break="left", **kwargs,
        )])[0].mean_sojourn_time
        assert a == pytest.approx(b, rel=0.15)

    def test_invalid_tie_break(self):
        with pytest.raises(ConfigurationError):
            simulate_supermarket([SupermarketRun(
                FullyRandomChoices(64, 2), 0.5, 10.0, tie_break="middle",
            )])[0]
