"""Tests for the insert/delete churn engine (paper §2.2's deletions)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import compare_distributions
from repro.core import simulate_batch, simulate_churn
from repro.errors import ConfigurationError
from repro.hashing import DoubleHashingChoices, FullyRandomChoices


class TestMechanics:
    def test_population_conserved(self):
        batch = simulate_churn(
            DoubleHashingChoices(64, 3), 64, churn_steps=200, trials=8, seed=1
        )
        assert (batch.loads.sum(axis=1) == 64).all()

    def test_zero_churn_matches_plain_fill(self):
        """With churn_steps=0 the engine is the standard process in law."""
        n, trials = 512, 60
        churn = simulate_churn(
            FullyRandomChoices(n, 3), n, 0, trials, seed=2
        ).distribution()
        plain = simulate_batch(
            FullyRandomChoices(n, 3), n, trials, seed=3
        ).distribution()
        for load in range(3):
            assert churn.fraction_at(load) == pytest.approx(
                plain.fraction_at(load), abs=0.015
            )

    def test_loads_nonnegative_throughout(self):
        batch = simulate_churn(
            DoubleHashingChoices(32, 2), 32, 500, trials=5, seed=4
        )
        assert (batch.loads >= 0).all()

    def test_validation(self):
        scheme = FullyRandomChoices(16, 2)
        with pytest.raises(ConfigurationError):
            simulate_churn(scheme, 0, 10, 1)
        with pytest.raises(ConfigurationError):
            simulate_churn(scheme, 16, -1, 1)
        with pytest.raises(ConfigurationError):
            simulate_churn(scheme, 16, 10, 0)
        with pytest.raises(ConfigurationError):
            simulate_churn(scheme, 16, 10, 1, tie_break="middle")
        with pytest.raises(ConfigurationError):
            simulate_churn(scheme, 16, 10, 1, block=0)


class TestUnifiedKwargs:
    """simulate_churn mirrors simulate_batch's backend=/block=/tie_break=."""

    def test_golden_determinism(self):
        """Fixed seed + fixed block → bit-identical loads across calls."""
        def run():
            return simulate_churn(
                DoubleHashingChoices(64, 3), 64, churn_steps=100,
                trials=4, seed=123, block=32,
            ).loads

        a, b = run(), run()
        assert (a == b).all()

    def test_backend_kwarg_accepted_and_recorded(self):
        from repro.metrics import MetricsRegistry

        reg = MetricsRegistry()
        batch = simulate_churn(
            DoubleHashingChoices(64, 2), 64, 50, trials=3, seed=9,
            backend="numpy", metrics=reg,
        )
        assert (batch.loads.sum(axis=1) == 64).all()
        snap = reg.snapshot()
        assert snap["counters"]["churn.calls.numpy"] == 1
        assert "churn.seconds" in snap["timers"]

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_churn(
                FullyRandomChoices(16, 2), 16, 10, 1, backend="fortran"
            )

    def test_left_tie_break(self):
        batch = simulate_churn(
            DoubleHashingChoices(64, 3), 64, 100, trials=4, seed=10,
            tie_break="left",
        )
        assert (batch.loads.sum(axis=1) == 64).all()
        assert (batch.loads >= 0).all()

    def test_keyed_scheme_through_registry(self):
        """The churn engine consumes registry-built keyed schemes."""
        from repro.hashing import make_scheme

        scheme = make_scheme("tabulation", 64, 2, seed=11)
        batch = simulate_churn(scheme, 64, 100, trials=3, seed=12)
        assert (batch.loads.sum(axis=1) == 64).all()


class TestPaperClaimUnderChurn:
    def test_double_vs_random_indistinguishable_after_churn(self):
        """§2.2: the indistinguishability claim extends to deletions."""
        n, trials, steps = 1024, 30, 2048
        rnd = simulate_churn(
            FullyRandomChoices(n, 3), n, steps, trials, seed=5
        ).distribution()
        dbl = simulate_churn(
            DoubleHashingChoices(n, 3), n, steps, trials, seed=6
        ).distribution()
        report = compare_distributions(rnd, dbl)
        assert report.indistinguishable

    def test_churn_keeps_max_load_small(self):
        """Heavy churn does not degrade the max load (steady state stays
        balanced — the property deletions-tolerant systems rely on)."""
        n = 1024
        batch = simulate_churn(
            DoubleHashingChoices(n, 3), n, 4 * n, trials=10, seed=7
        )
        assert batch.loads.max() <= 5


@given(
    n_exp=st.integers(min_value=3, max_value=6),
    steps=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_property_churn_conservation(n_exp, steps, seed):
    n = 2**n_exp
    batch = simulate_churn(
        DoubleHashingChoices(n, 2), n, steps, trials=3, seed=seed
    )
    assert (batch.loads.sum(axis=1) == n).all()
    assert (batch.loads >= 0).all()
