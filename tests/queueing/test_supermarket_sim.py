"""Tests for the event-driven supermarket simulator."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, StabilityError
from repro.fluid import equilibrium_mean_sojourn_time
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.queueing import SupermarketRun, simulate_supermarket


class TestBasics:
    def test_returns_sane_result(self):
        res = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(64, 2), 0.5, 100.0, burn_in=20.0, seed=1,
        )])[0]
        assert res.completed_jobs > 500
        assert res.mean_sojourn_time > 1.0  # at least one service time
        assert 0.0 < res.mean_queue_length < 5.0
        assert res.sim_time == 100.0

    def test_reproducible(self):
        a, b = (
            simulate_supermarket(
                [SupermarketRun(FullyRandomChoices(32, 2), 0.6, 50.0, seed=42)]
            )[0]
            for _ in range(2)
        )
        assert a.mean_sojourn_time == b.mean_sojourn_time
        assert a.completed_jobs == b.completed_jobs

    def test_validation(self):
        scheme = FullyRandomChoices(16, 2)
        with pytest.raises(ConfigurationError):
            SupermarketRun(scheme, 1.2, 10.0)
        with pytest.raises(ConfigurationError):
            SupermarketRun(scheme, 0.5, -1.0)
        with pytest.raises(ConfigurationError):
            SupermarketRun(scheme, 0.5, 10.0, burn_in=20.0)
        with pytest.raises(ConfigurationError):
            simulate_supermarket(
                [SupermarketRun(scheme, 0.5, 10.0)], backend="fortran"
            )

    def test_backend_kwarg_accepted(self):
        res = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(16, 2), 0.5, 20.0, seed=4,
        )], backend="numpy")[0]
        assert res.completed_jobs > 0

    def test_stability_guard_trips_on_tiny_budget(self):
        with pytest.raises(StabilityError):
            simulate_supermarket([SupermarketRun(
                FullyRandomChoices(64, 2), 0.9, 200.0, seed=2,
                max_total_jobs=3,
            )])[0]


class TestAgainstTheory:
    def test_d1_matches_mm1(self):
        """One choice = n independent M/M/1 queues: mean sojourn 1/(1−λ)."""
        res = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(256, 1), 0.5, 600.0, burn_in=100.0, seed=3,
        )])[0]
        assert res.mean_sojourn_time == pytest.approx(2.0, rel=0.08)

    def test_matches_fluid_equilibrium_d2(self):
        res = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(512, 2), 0.7, 400.0, burn_in=100.0, seed=4,
        )])[0]
        expected = equilibrium_mean_sojourn_time(0.7, 2)
        assert res.mean_sojourn_time == pytest.approx(expected, rel=0.05)

    def test_double_hashing_matches_fluid_equilibrium(self):
        res = simulate_supermarket([SupermarketRun(
            DoubleHashingChoices(512, 3), 0.9, 400.0, burn_in=100.0, seed=5,
        )])[0]
        expected = equilibrium_mean_sojourn_time(0.9, 3)
        assert res.mean_sojourn_time == pytest.approx(expected, rel=0.06)

    def test_double_vs_random_close(self):
        """The paper's Table 8 claim at reduced scale: the two schemes'
        sojourn times differ by far less than their distance to M/M/1."""
        kwargs = dict(lam=0.9, sim_time=300.0, burn_in=60.0)
        a = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(256, 3), seed=6, **kwargs,
        )])[0].mean_sojourn_time
        b = simulate_supermarket([SupermarketRun(
            DoubleHashingChoices(256, 3), seed=7, **kwargs,
        )])[0].mean_sojourn_time
        mm1 = 1.0 / (1.0 - 0.9)
        assert abs(a - b) < 0.15
        assert abs(a - b) < 0.05 * (mm1 - max(a, b))

    def test_more_choices_shorter_sojourn(self):
        results = [
            simulate_supermarket([SupermarketRun(
                FullyRandomChoices(256, d), 0.9, 200.0, burn_in=50.0,
                seed=10 + d,
            )])[0].mean_sojourn_time
            for d in (1, 2, 4)
        ]
        assert results[0] > results[1] > results[2]

    def test_littles_law_cross_check(self):
        """Mean queue length ~ λ · mean sojourn (Little's law)."""
        res = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(256, 2), 0.8, 400.0, burn_in=100.0, seed=8,
        )])[0]
        assert res.mean_queue_length == pytest.approx(
            0.8 * res.mean_sojourn_time, rel=0.06
        )
