"""Backend selection must reach supermarket workers and table runners.

Satellite of the supermarket-kernel PR: ``REPRO_BACKEND`` and explicit
``backend=`` arguments must propagate into ``simulate_supermarket`` —
in-process, through the pickled ``_QueueTask`` of
``run_queueing_experiment`` worker fan-out, and through
``ExperimentSpec.backend`` in the table/certify runners — and unknown
names must fail loudly on every one of those paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hashing import FullyRandomChoices
from repro.kernels import ENV_VAR
from repro.metrics import global_registry
from repro.queueing import run_queueing_experiment, simulate_supermarket
from repro.queueing.batch import _QueueTask


class TestEnvPropagation:
    def test_env_backend_used(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        res = simulate_supermarket(
            FullyRandomChoices(32, 2), 0.6, 30.0, seed=3
        )
        assert res.completed_jobs > 0

    def test_env_unknown_backend_rejected(self, monkeypatch):
        for name in ("cuda", "numba"):
            monkeypatch.setenv(ENV_VAR, name)
            with pytest.raises(
                ConfigurationError, match="unknown kernel backend"
            ):
                simulate_supermarket(
                    FullyRandomChoices(32, 2), 0.6, 30.0, seed=3
                )

    def test_env_numba_fails_loudly(self, monkeypatch):
        # REPRO_BACKEND=numba reaching the run fan-out raises instead of
        # degrading to numpy, and logs no backend-fallback event.
        before = len(global_registry().events)
        monkeypatch.setenv(ENV_VAR, "numba")
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            run_queueing_experiment(
                FullyRandomChoices(32, 2), 0.7, runs=2, sim_time=20.0,
                burn_in=2.0, seed=13,
            )
        new = global_registry().events[before:]
        assert not any(e["kind"] == "backend-fallback" for e in new)


class TestWorkerPropagation:
    def test_task_carries_backend(self):
        task = _QueueTask(
            scheme=FullyRandomChoices(16, 2),
            lam=0.5,
            sim_time=10.0,
            burn_in=0.0,
            backend="numpy",
        )
        assert task.backend == "numpy"

    def test_explicit_backend_matches_default_serial(self):
        kwargs = dict(runs=3, sim_time=30.0, burn_in=5.0, seed=11)
        base = run_queueing_experiment(
            FullyRandomChoices(48, 2), 0.7, backend="numpy", **kwargs
        )
        again = run_queueing_experiment(
            FullyRandomChoices(48, 2), 0.7, backend="numpy", **kwargs
        )
        np.testing.assert_array_equal(base.per_run, again.per_run)

    def test_workers_bit_identical_with_backend(self):
        kwargs = dict(runs=4, sim_time=25.0, burn_in=5.0, seed=12)
        serial = run_queueing_experiment(
            FullyRandomChoices(32, 2), 0.8, workers=1, backend="numpy",
            **kwargs,
        )
        fanned = run_queueing_experiment(
            FullyRandomChoices(32, 2), 0.8, workers=2, backend="numpy",
            **kwargs,
        )
        np.testing.assert_array_equal(serial.per_run, fanned.per_run)

    def test_throughput_counters_published(self):
        before = global_registry().get_counter("queueing.events")
        run_queueing_experiment(
            FullyRandomChoices(32, 2), 0.7, runs=2, sim_time=20.0,
            burn_in=2.0, seed=14, backend="numpy",
        )
        assert global_registry().get_counter("queueing.events") > before


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
