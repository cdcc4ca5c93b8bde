"""Backend registry: resolution order, fail-loudly names, public contract."""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels as kernels
from repro.errors import ConfigurationError
from repro.kernels import resolve_backend, run_placement_kernel
from repro.metrics import MetricsRegistry


class TestResolution:
    def test_default_is_known_backend(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        assert resolve_backend().name == "numpy"

    def test_explicit_numpy(self):
        assert resolve_backend("numpy").name == "numpy"

    def test_explicit_is_case_and_space_insensitive(self):
        assert resolve_backend("  NumPy ").name == "numpy"

    def test_env_variable_selects(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert resolve_backend().name == "numpy"

    def test_explicit_wins_over_env(self, monkeypatch):
        # An unknown env value must be ignored when an explicit name is given.
        monkeypatch.setenv(kernels.ENV_VAR, "bogus")
        assert resolve_backend("numpy").name == "numpy"

    def test_empty_env_means_auto(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "")
        assert resolve_backend().name == "numpy"

    def test_unknown_name_raises(self):
        for name in ("fortran", "numba"):
            with pytest.raises(ConfigurationError, match="unknown kernel backend"):
                resolve_backend(name)

    def test_unknown_env_raises(self, monkeypatch):
        for name in ("fortran", "numba"):
            monkeypatch.setenv(kernels.ENV_VAR, name)
            with pytest.raises(ConfigurationError, match="unknown kernel backend"):
                resolve_backend()

    def test_available_backends(self):
        assert kernels.KNOWN_BACKENDS == ("numpy",)


class TestRunPlacementKernel:
    def _arrays(self, trials=4, n=32, steps=100, d=3, seed=3):
        rng = np.random.default_rng(seed)
        loads = np.zeros((trials, n), dtype=np.int64)
        choices = rng.integers(0, n, size=(trials, steps, d))
        tie_keys = rng.integers(0, 1 << 8, size=(trials, steps, d))
        return loads, choices, tie_keys

    def test_conserves_balls_and_returns_loads(self):
        loads, choices, tie_keys = self._arrays()
        out = run_placement_kernel(loads, choices, tie_keys)
        assert out is loads
        assert (loads.sum(axis=1) == choices.shape[1]).all()

    def test_matches_sequential_semantics(self):
        # d=1 removes all choice: the result must equal a bincount.
        trials, n, steps = 3, 16, 200
        rng = np.random.default_rng(11)
        choices = rng.integers(0, n, size=(trials, steps, 1))
        loads = np.zeros((trials, n), dtype=np.int64)
        run_placement_kernel(loads, choices)
        for t in range(trials):
            expect = np.bincount(choices[t, :, 0], minlength=n)
            assert np.array_equal(loads[t], expect)

    def test_left_tie_break_prefers_first_column(self):
        # Two empty bins offered each step; "left" must always pick col 0.
        trials, n, steps = 2, 8, 4
        choices = np.zeros((trials, steps, 2), dtype=np.int64)
        choices[:, :, 0] = np.arange(steps)        # distinct bins, col 0
        choices[:, :, 1] = np.arange(steps) + 4    # distinct bins, col 1
        loads = np.zeros((trials, n), dtype=np.int64)
        run_placement_kernel(loads, choices, tie_break="left")
        assert (loads[:, :4] == 1).all() and (loads[:, 4:] == 0).all()

    def test_tie_keys_with_left_rejected(self):
        loads, choices, tie_keys = self._arrays()
        with pytest.raises(ConfigurationError, match="tie_keys must be None"):
            run_placement_kernel(loads, choices, tie_keys, tie_break="left")

    def test_tie_keys_shape_mismatch_rejected(self):
        loads, choices, tie_keys = self._arrays()
        with pytest.raises(ConfigurationError, match="tie_keys shape"):
            run_placement_kernel(loads, choices, tie_keys[:, :-1])

    def test_tie_keys_out_of_range_rejected(self):
        loads, choices, tie_keys = self._arrays()
        tie_keys[0, 0, 0] = 1 << 40
        with pytest.raises(ConfigurationError, match="tie_keys must lie"):
            run_placement_kernel(loads, choices, tie_keys)

    def test_bad_tie_break_rejected(self):
        loads, choices, _ = self._arrays()
        with pytest.raises(ConfigurationError, match="tie_break"):
            run_placement_kernel(loads, choices, tie_break="middle")

    def test_bad_shapes_rejected(self):
        loads, choices, _ = self._arrays()
        with pytest.raises(ConfigurationError, match="loads must be 2-D"):
            run_placement_kernel(loads[0], choices)
        with pytest.raises(ConfigurationError, match="choices must be"):
            run_placement_kernel(loads, choices[:2])

    def test_negative_loads_rejected(self):
        loads, choices, _ = self._arrays()
        loads[0, 0] = -1
        with pytest.raises(ConfigurationError, match="non-negative"):
            run_placement_kernel(loads, choices)

    def test_resumes_from_existing_loads(self):
        loads, choices, tie_keys = self._arrays()
        half = choices.shape[1] // 2
        a = loads.copy()
        run_placement_kernel(a, choices, tie_keys)
        b = loads.copy()
        run_placement_kernel(b, choices[:, :half], tie_keys[:, :half])
        run_placement_kernel(b, choices[:, half:], tie_keys[:, half:])
        # Placement is exactly sequential, so splitting one ball stream
        # across two calls must reproduce the single-call result bit for bit.
        assert np.array_equal(a, b)

    def test_metrics_counters(self):
        registry = MetricsRegistry()
        loads, choices, tie_keys = self._arrays(trials=2, steps=50)
        run_placement_kernel(
            loads, choices, tie_keys, backend="numpy", metrics=registry
        )
        assert registry.get_counter("kernel.balls_placed") == 2 * 50
        assert registry.get_counter("kernel.calls.numpy") == 1

    def test_numba_request_fails_loudly(self):
        # No silent downgrade to numpy: the request raises before placing
        # a ball and logs no backend-fallback event anywhere.
        registry = MetricsRegistry()
        before = len(kernels.kernel_metrics().events)
        loads, choices, tie_keys = self._arrays()
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            run_placement_kernel(
                loads, choices, tie_keys, backend="numba", metrics=registry
            )
        assert (loads == 0).all()
        assert registry.events == []
        assert registry.get_counter("kernel.balls_placed") == 0
        new = kernels.kernel_metrics().events[before:]
        assert not any(e["kind"] == "backend-fallback" for e in new)
