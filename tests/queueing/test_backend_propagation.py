"""Backend selection must reach the supermarket kernel and table runners.

``REPRO_BACKEND`` and explicit ``backend=`` arguments must propagate into
``simulate_supermarket`` — directly, and through ``ExperimentSpec.backend``
in the table/certify runners — and unknown names must fail loudly, in
``run_experiment`` too.
"""

from __future__ import annotations

import pytest

from repro.core import run_experiment
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentSpec
from repro.hashing import FullyRandomChoices
from repro.kernels import ENV_VAR
from repro.queueing import SupermarketRun, simulate_supermarket


class TestEnvPropagation:
    def test_env_backend_used(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        res = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(32, 2), 0.6, 30.0, seed=3,
        )])[0]
        assert res.completed_jobs > 0

    def test_env_unknown_backend_rejected(self, monkeypatch):
        # "reference" names the keymap oracle, not a placement backend.
        spec = ExperimentSpec(n=32, d=2, trials=2, seed=3)
        for name in ("cuda", "numba", "reference"):
            monkeypatch.setenv(ENV_VAR, name)
            with pytest.raises(
                ConfigurationError, match="unknown kernel backend"
            ):
                simulate_supermarket([SupermarketRun(
                    FullyRandomChoices(32, 2), 0.6, 30.0, seed=3,
                )])[0]
            # run_experiment rejects the name up front: a chunk that
            # raises is retried and its error wrapped in SimulationError.
            with pytest.raises(
                ConfigurationError, match="unknown kernel backend"
            ):
                run_experiment(FullyRandomChoices(32, 2), spec)


class TestSpecPropagation:
    def test_table8_spec_backend_reaches_kernel(self, monkeypatch):
        """table8 with spec.backend='numpy' must complete under an unknown
        ``REPRO_BACKEND``: the explicit spec value reaches the kernel and
        wins over the environment, which would otherwise raise."""
        from repro.experiments.config import ExperimentSpec
        from repro.experiments.tables import table8_queueing

        monkeypatch.setenv(ENV_VAR, "fortran")
        table = table8_queueing(
            ExperimentSpec(
                n=32, d=2, seed=5, sim_time=20.0, burn_in=4.0,
                backend="numpy",
            ),
            lambdas=(0.8,),
            d_values=(2,),
        )
        assert len(table.rows) == 1
