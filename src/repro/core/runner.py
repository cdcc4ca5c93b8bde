"""Experiment orchestration: chunked, checkpointed, optionally parallel runs.

:func:`run_experiment` is the main entry point used by the experiment
harness and benchmarks.  It splits the requested trials into the chunks
:func:`~repro.parallel.pool.chunk_sizes` fixes from the run alone and
runs each through the vectorized engine via the
:class:`~repro.parallel.engine.ExecutionEngine` — one spawned seed
stream per chunk, optional checkpointing for resume after a failure,
metrics and progress instrumentation.  Each chunk returns its per-trial
load histograms (:func:`~repro.types.trial_histograms`), and the run
keeps them, stacked in chunk order, as one ``(trials, max_load + 1)``
matrix: O(trials · max_load) integers, about 0.4 MB at the paper's
10^4-trial Table 5.  The worker count only schedules the chunks, so a
run's numbers depend on its spec alone.

Every call passes an :class:`~repro.experiments.config.ExperimentSpec`::

    spec = ExperimentSpec(n=2**14, d=3, trials=1000, seed=1, workers=4)
    result = run_experiment(DoubleHashingChoices(spec.n, spec.d), spec)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.vectorized import simulate_batch
from repro.errors import ConfigurationError
from repro.hashing.base import ChoiceScheme
from repro.kernels import resolve_backend
from repro.metrics import MetricsRegistry
from repro.parallel.engine import ChunkProgress, ExecutionEngine
from repro.parallel.pool import chunk_sizes
from repro.types import LoadDistribution, load_distribution, trial_histograms

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentSpec

__all__ = ["ExperimentResult", "run_experiment"]


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated outcome of a multi-trial experiment.

    Attributes
    ----------
    distribution:
        Merged load distribution over all trials.
    histograms:
        The ``(trials, max_load + 1)`` int64 per-trial load histograms,
        in chunk order; :func:`~repro.types.level_stats` reads Table 5's
        rows from it.
    scheme_description:
        The scheme's one-line description for reports.
    metrics:
        The metrics registry observed during the run (chunk timings and
        records); ``None`` unless instrumentation was on.
    spec:
        The spec the trials ran under.
    """

    distribution: LoadDistribution
    histograms: np.ndarray
    scheme_description: str
    metrics: MetricsRegistry | None = None
    spec: ExperimentSpec | None = None


@dataclass(frozen=True)
class _ChunkTask:
    """Picklable chunk description shipped to worker processes.

    ``backend`` rides along so pool workers inherit the kernel backend of
    the parent run (the ``REPRO_BACKEND`` environment variable is also
    inherited by spawned processes, but an explicit spec choice must win
    over the worker's environment).  Its pickle also names the run in a
    checkpoint's header, so a checkpoint of any other task is refused.
    """

    scheme: ChoiceScheme
    n_balls: int
    backend: str | None


def _run_chunk(
    task: _ChunkTask, chunk_trials: int, seed_seq: np.random.SeedSequence
) -> np.ndarray:
    """Worker body: run one chunk, return the per-trial histogram matrix."""
    rng = np.random.default_rng(seed_seq)
    batch = simulate_batch(
        task.scheme, task.n_balls, chunk_trials, seed=rng, backend=task.backend
    )
    return trial_histograms(batch.loads)


def run_experiment(
    scheme: ChoiceScheme,
    spec: "ExperimentSpec",
    *,
    metrics: MetricsRegistry | None = None,
    progress: Callable[[ChunkProgress], None] | None = None,
) -> ExperimentResult:
    """Run balls-and-bins trials under ``spec`` and aggregate the results.

    Parameters
    ----------
    scheme:
        Choice generator (must be picklable when ``spec.workers > 1``;
        all built-in schemes are).
    spec:
        The :class:`~repro.experiments.config.ExperimentSpec` describing
        the run.
    metrics:
        Registry to instrument the run with (the engine creates a private
        one when ``None``).
    progress:
        Callback receiving a :class:`~repro.parallel.engine.ChunkProgress`
        per completed chunk.

    The kernel backend (``spec.backend``, else ``REPRO_BACKEND``) is
    resolved once before any chunk runs, so an unknown name raises
    :class:`~repro.errors.ConfigurationError` before any work starts.
    """
    from repro.experiments.config import ExperimentSpec

    if not isinstance(spec, ExperimentSpec):
        raise TypeError(
            f"run_experiment needs an ExperimentSpec, got {type(spec).__name__}"
        )
    if spec.trials < 1:
        raise ConfigurationError(f"trials must be positive, got {spec.trials}")
    resolve_backend(spec.backend)

    engine = ExecutionEngine(
        workers=spec.workers, metrics=metrics, progress=progress
    )
    registry = engine.metrics  # the engine creates one when none was given

    n_balls_run = spec.balls
    with registry.timer("experiment.total_seconds"):
        histograms = engine.map_chunks(
            _run_chunk,
            _ChunkTask(scheme, n_balls_run, spec.backend),
            chunk_sizes(spec.trials, scheme.n_bins),
            seed=spec.seed,
            checkpoint=spec.checkpoint,
        )
        with registry.timer("experiment.aggregate_seconds"):
            width = max(hist.shape[1] for hist in histograms)
            stacked = np.concatenate([
                np.pad(hist, ((0, 0), (0, width - hist.shape[1])))
                for hist in histograms
            ])
            distribution = load_distribution(
                stacked, scheme.n_bins, n_balls_run
            )
    registry.increment("experiment.trials", spec.trials)
    # Each ball draws d candidate bins (plus tie-break draws); this
    # estimate tracks RNG pressure across sweeps without instrumenting
    # numpy itself.
    registry.increment(
        "rng.draws_estimate", spec.trials * n_balls_run * scheme.d
    )
    return ExperimentResult(
        distribution=distribution,
        histograms=stacked,
        scheme_description=scheme.describe(),
        metrics=registry if (metrics is not None or progress is not None) else None,
        spec=spec,
    )
