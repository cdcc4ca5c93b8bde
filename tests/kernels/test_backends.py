"""Backend registry: resolution order and fail-loudly names."""

from __future__ import annotations

import pytest

import repro.kernels as kernels
from repro.errors import ConfigurationError
from repro.kernels import resolve_backend


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
