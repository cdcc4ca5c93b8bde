"""Integration tests: the paper's claims, end to end.

Each test here crosses at least two subsystems (scheme + engine + fluid /
analysis) and asserts the claim the corresponding part of the paper makes,
at a scale where sampling noise is controlled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import compare_distributions, witness_tree_bound
from repro.core import simulate_batch, simulate_dleft
from repro.core.dleft import make_dleft_scheme
from repro.fluid import (
    equilibrium_mean_sojourn_time,
    solve_balls_bins,
    solve_dleft,
    solve_heavy_load,
)
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.queueing import SupermarketRun, simulate_supermarket

N = 2**13
TRIALS = 60


@pytest.fixture(scope="module")
def standard_runs():
    """Shared d = 3 standard-scheme runs for both schemes."""
    random_dist = simulate_batch(
        FullyRandomChoices(N, 3), N, TRIALS, seed=101
    ).distribution()
    double_dist = simulate_batch(
        DoubleHashingChoices(N, 3), N, TRIALS, seed=202
    ).distribution()
    return random_dist, double_dist


class TestHeadlineClaim:
    """Section 1 / Table 1: double hashing ~ fully random."""

    def test_statistically_indistinguishable(self, standard_runs):
        random_dist, double_dist = standard_runs
        report = compare_distributions(random_dist, double_dist)
        assert report.indistinguishable, (
            f"p={report.p_value:.4f}, "
            f"max dev {report.max_deviation_sigmas:.1f} sigmas"
        )

    def test_every_level_within_sampling_noise(self, standard_runs):
        random_dist, double_dist = standard_runs
        n_obs = TRIALS * N
        for load in range(4):
            diff = abs(
                random_dist.fraction_at(load) - double_dist.fraction_at(load)
            )
            p = max(random_dist.fraction_at(load), 1e-6)
            se = np.sqrt(2 * p * (1 - p) / n_obs)
            assert diff < 5 * se, f"load {load}: {diff} vs se {se}"

    def test_max_loads_agree(self, standard_runs):
        random_dist, double_dist = standard_runs
        assert abs(random_dist.max_load - double_dist.max_load) <= 1


class TestFluidLimitClaim:
    """Theorem 8 / Corollary 9: both schemes follow the same ODEs."""

    def test_double_hashing_matches_ode(self, standard_runs):
        _, double_dist = standard_runs
        fluid = solve_balls_bins(3, 1.0)
        for load in range(3):
            assert double_dist.fraction_at(load) == pytest.approx(
                fluid.fraction_at(load), abs=0.003
            )

    def test_fully_random_matches_ode(self, standard_runs):
        random_dist, _ = standard_runs
        fluid = solve_balls_bins(3, 1.0)
        for load in range(3):
            assert random_dist.fraction_at(load) == pytest.approx(
                fluid.fraction_at(load), abs=0.003
            )

    def test_convergence_rate_in_n(self):
        """The o(1) gap shrinks as n grows (Wormald deviation)."""
        fluid = solve_balls_bins(3, 1.0)
        gaps = []
        for n in (2**8, 2**12):
            dist = simulate_batch(
                DoubleHashingChoices(n, 3), n, 400, seed=n
            ).distribution()
            gaps.append(abs(dist.fraction_at(1) - fluid.fraction_at(1)))
        assert gaps[1] < gaps[0] + 0.002


class TestMaxLoadClaims:
    """Corollary 3 / Theorem 4: O(log log n) maximum load under double
    hashing."""

    def test_max_load_within_witness_bound(self):
        for d in (3, 4):
            batch = simulate_batch(
                DoubleHashingChoices(N, d), N, 30, seed=300 + d
            )
            bound = witness_tree_bound(N, d).max_load_bound
            assert batch.loads.max() <= bound

    def test_max_load_tracks_log_log(self):
        """Observed max load grows very slowly (at most +1 from 2^8 to
        2^13 at d = 3)."""
        maxes = {}
        for n in (2**8, 2**13):
            batch = simulate_batch(DoubleHashingChoices(n, 3), n, 40, seed=n)
            maxes[n] = int(np.median(batch.loads.max(axis=1)))
        assert maxes[2**13] - maxes[2**8] <= 1

    def test_d4_lighter_than_d3(self, standard_runs):
        random_d3, _ = standard_runs
        d4 = simulate_batch(
            FullyRandomChoices(N, 4), N, TRIALS, seed=404
        ).distribution()
        assert d4.tail_at(2) < random_d3.tail_at(2)


class TestDLeftClaim:
    """Table 7: the claim extends to Vöcking's scheme."""

    def test_dleft_schemes_indistinguishable(self):
        random_dist = simulate_dleft(
            make_dleft_scheme(N, 4, "random"), N, TRIALS, seed=500
        ).distribution()
        double_dist = simulate_dleft(
            make_dleft_scheme(N, 4, "double"), N, TRIALS, seed=501
        ).distribution()
        report = compare_distributions(random_dist, double_dist)
        assert report.indistinguishable

    def test_dleft_matches_its_fluid_limit(self):
        dist = simulate_dleft(
            make_dleft_scheme(N, 4, "double"), N, TRIALS, seed=502
        ).distribution()
        fluid = solve_dleft(4, 1.0)
        for load in range(3):
            assert dist.fraction_at(load) == pytest.approx(
                fluid.fraction_at(load), abs=0.003
            )


class TestHeavyLoadClaim:
    """Table 6: the claim persists at average load 16."""

    def test_heavy_load_indistinguishable_and_near_fluid(self):
        n, m = 2**10, 2**10 * 16
        random_dist = simulate_batch(
            FullyRandomChoices(n, 3), m, 15, seed=600
        ).distribution()
        double_dist = simulate_batch(
            DoubleHashingChoices(n, 3), m, 15, seed=601
        ).distribution()
        report = compare_distributions(random_dist, double_dist)
        assert report.indistinguishable
        fluid = solve_heavy_load(3, 16.0)
        for load in (15, 16, 17):
            assert double_dist.fraction_at(load) == pytest.approx(
                fluid.fraction_at(load), abs=0.01
            )


class TestQueueingClaim:
    """Table 8: the claim holds in the supermarket model."""

    def test_sojourn_times_close_and_near_equilibrium(self):
        kwargs = dict(lam=0.9, sim_time=300.0, burn_in=60.0)
        rand = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(512, 3), seed=700, **kwargs,
        )])[0].mean_sojourn_time
        dbl = simulate_supermarket([SupermarketRun(
            DoubleHashingChoices(512, 3), seed=701, **kwargs,
        )])[0].mean_sojourn_time
        eq = equilibrium_mean_sojourn_time(0.9, 3)
        assert rand == pytest.approx(eq, rel=0.06)
        assert dbl == pytest.approx(eq, rel=0.06)
        assert abs(rand - dbl) < 0.12
