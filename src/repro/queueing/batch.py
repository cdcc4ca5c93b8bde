"""Multi-run queueing experiments — the paper's Table 8 protocol.

The paper reports the average over **100 independent simulations** of
10000 seconds each.  :func:`run_queueing_experiment` reproduces that
protocol: independent runs with spawned seed streams (optionally across a
process pool), aggregated into a mean with a between-run confidence
interval — the statistically honest way to quote a supermarket-model
number, since within-run sojourn times are autocorrelated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.base import ChoiceScheme
from repro.kernels import resolve_backend
from repro.metrics import global_registry
from repro.parallel import EngineConfig, ExecutionEngine
from repro.queueing.supermarket_sim import simulate_supermarket

__all__ = ["QueueingExperiment", "run_queueing_experiment"]


@dataclass(frozen=True)
class QueueingExperiment:
    """Aggregate of independent queueing runs.

    Attributes
    ----------
    mean_sojourn_time:
        Mean of per-run means (the paper's Table 8 quantity).
    std_between_runs:
        Sample standard deviation of per-run means.
    runs:
        Number of independent runs.
    per_run:
        The individual per-run mean sojourn times.
    """

    mean_sojourn_time: float
    std_between_runs: float
    runs: int
    per_run: np.ndarray

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal CI over run means (runs are genuinely independent)."""
        half = z * self.std_between_runs / math.sqrt(max(self.runs, 1))
        return (self.mean_sojourn_time - half, self.mean_sojourn_time + half)


@dataclass(frozen=True)
class _QueueTask:
    scheme: ChoiceScheme
    lam: float
    sim_time: float
    burn_in: float
    backend: str | None = None


def _run_queue_chunk(
    task: _QueueTask, chunk_runs: int, seed_seq: np.random.SeedSequence
) -> list[tuple[float, int]]:
    rng = np.random.default_rng(seed_seq)
    out = []
    for _ in range(chunk_runs):
        result = simulate_supermarket(
            task.scheme,
            task.lam,
            task.sim_time,
            burn_in=task.burn_in,
            seed=rng,
            backend=task.backend,
        )
        out.append((result.mean_sojourn_time, result.n_events or 0))
    return out


def run_queueing_experiment(
    scheme: ChoiceScheme,
    lam: float,
    *,
    runs: int = 10,
    sim_time: float = 1000.0,
    burn_in: float = 100.0,
    seed: int | None = None,
    workers: int = 1,
    backend: str | None = None,
) -> QueueingExperiment:
    """Run ``runs`` independent supermarket simulations and aggregate.

    Parameters mirror :func:`~repro.queueing.simulate_supermarket`;
    ``workers > 1`` fans runs across a process pool with deterministic
    spawned seeds (bit-identical to the serial result).  ``backend``
    travels inside the pickled chunk task, so worker processes run the
    same supermarket kernel as the parent.  Aggregate event throughput is
    published to the global metrics registry (``queueing.runs`` /
    ``queueing.events`` counters).
    """
    if runs < 1:
        raise ConfigurationError(f"runs must be positive, got {runs}")
    # Reject an unknown backend (explicit or from REPRO_BACKEND) here,
    # not after every chunk has exhausted its retries.
    resolve_backend(backend)
    # One run per chunk: every run draws from its own spawned seed stream,
    # making results identical for any worker count.
    engine = ExecutionEngine(EngineConfig(workers=workers, chunks=runs))
    chunks = engine.map_chunks(
        _run_queue_chunk,
        _QueueTask(
            scheme=scheme,
            lam=lam,
            sim_time=sim_time,
            burn_in=burn_in,
            backend=backend,
        ),
        runs,
        seed=seed,
    )
    per_run = np.array([m for chunk in chunks for m, _ in chunk])
    registry = global_registry()
    registry.increment("queueing.runs", len(per_run))
    registry.increment(
        "queueing.events", sum(e for chunk in chunks for _, e in chunk)
    )
    std = float(per_run.std(ddof=1)) if len(per_run) > 1 else 0.0
    return QueueingExperiment(
        mean_sojourn_time=float(per_run.mean()),
        std_between_runs=std,
        runs=len(per_run),
        per_run=per_run,
    )
