"""Tests for the Theorem 2 majorization coupling."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import coupled_majorization_run, majorizes
from repro.errors import ConfigurationError


class TestMajorizes:
    def test_reflexive(self):
        assert majorizes([3, 2, 1], [3, 2, 1])

    def test_strict_example(self):
        assert majorizes([4, 0, 0], [2, 1, 1])
        assert not majorizes([2, 1, 1], [4, 0, 0])

    def test_different_sums_fail(self):
        assert not majorizes([3, 0], [1, 1])

    def test_order_irrelevant_in_input(self):
        assert majorizes([0, 0, 4], [1, 2, 1])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            majorizes([1, 2], [1, 2, 3])

    @given(
        x=st.lists(st.integers(min_value=0, max_value=10), min_size=2, max_size=8)
    )
    @settings(max_examples=50, deadline=None)
    def test_property_concentrated_vector_majorizes_everything(self, x):
        """Putting the whole mass in one coordinate majorizes any split."""
        total = sum(x)
        concentrated = [total] + [0] * (len(x) - 1)
        assert majorizes(concentrated, x)


class TestCoupledRun:
    def test_invariant_holds_theorem2(self):
        """Theorem 2: two random choices majorize d double-hashed choices,
        verified after every single ball."""
        trace = coupled_majorization_run(128, 512, 3, seed=1)
        assert trace.holds
        assert trace.first_violation == -1

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_invariant_across_d(self, d):
        assert coupled_majorization_run(64, 256, d, seed=d).holds

    def test_max_load_dominance(self):
        """Corollary: X's maximum load >= Y's under the coupling."""
        for seed in range(5):
            trace = coupled_majorization_run(128, 384, 4, seed=seed)
            assert trace.final_max_x >= trace.final_max_y

    def test_zero_balls(self):
        trace = coupled_majorization_run(16, 0, 3, seed=1)
        assert trace.holds
        assert trace.final_max_x == 0 == trace.final_max_y

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            coupled_majorization_run(16, 16, 1)
        with pytest.raises(ConfigurationError):
            coupled_majorization_run(1, 16, 2)
        with pytest.raises(ConfigurationError):
            coupled_majorization_run(16, -1, 2)

    @given(
        n_exp=st.integers(min_value=3, max_value=7),
        d=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_coupling_always_majorizes(self, n_exp, d, seed):
        n = 2**n_exp
        trace = coupled_majorization_run(n, 2 * n, d, seed=seed)
        assert trace.holds, f"violated at ball {trace.first_violation}"
