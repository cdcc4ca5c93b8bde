"""Experiment orchestration: chunked, resilient, optionally parallel runs.

:func:`run_experiment` is the main entry point used by the experiment
harness and benchmarks.  It splits the requested trials into chunks and
runs each through the vectorized engine via the resilient
:class:`~repro.parallel.engine.ExecutionEngine` — per-chunk retries on
the original seed streams, optional checkpointing and timeouts, metrics
and progress instrumentation — then folds the chunk summaries into a
:class:`~repro.core.stats.StreamingLoadAggregator`, so memory stays
O(max_load) no matter how many trials are requested, matching the
paper's 10^4-trial scale.

Every call passes an :class:`~repro.experiments.config.ExperimentSpec`::

    spec = ExperimentSpec(n=2**14, d=3, trials=1000, seed=1, workers=4)
    result = run_experiment(DoubleHashingChoices(spec.n, spec.d), spec)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.stats import StreamingLoadAggregator, trial_histograms
from repro.core.vectorized import simulate_batch
from repro.errors import ConfigurationError
from repro.hashing.base import ChoiceScheme
from repro.metrics import MetricsRegistry
from repro.parallel.engine import ChunkProgress, ExecutionEngine
from repro.types import LoadDistribution

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
    aggregator:
        The streaming aggregator, exposing per-level sample statistics
        (Table 5 rows) without retaining raw loads.
    scheme_description:
        The scheme's one-line description for reports.
    metrics:
        The metrics registry observed during the run (chunk timings,
        retry/timeout events); ``None`` unless instrumentation was on.
    """

    distribution: LoadDistribution
    aggregator: StreamingLoadAggregator
    scheme_description: str
    metrics: MetricsRegistry | None = None


@dataclass(frozen=True)
class _ChunkTask:
    """Picklable chunk description shipped to worker processes.

    ``backend`` rides along so pool workers inherit the kernel backend of
    the parent run (the ``REPRO_BACKEND`` environment variable is also
    inherited by spawned processes, but an explicit spec choice must win
    over the worker's environment).
    """

    scheme: ChoiceScheme
    n_balls: int
    tie_break: str
    block: int
    backend: str | None = None


def _run_chunk(
    task: _ChunkTask, chunk_trials: int, seed_seq: np.random.SeedSequence
) -> np.ndarray:
    """Worker body: run one chunk, return the per-trial histogram matrix."""
    rng = np.random.default_rng(seed_seq)
    batch = simulate_batch(
        task.scheme,
        task.n_balls,
        chunk_trials,
        seed=rng,
        tie_break=task.tie_break,
        block=task.block,
        backend=task.backend,
    )
    return trial_histograms(batch.loads)


@dataclass(frozen=True)
class _ParallelChunkTask:
    """Chunk description for ``trials_mode="parallel"``.

    Carries the shared ``root`` entropy instead of relying on the
    engine's spawned per-chunk seeds: every trial's counter-based stream
    is keyed by ``(root, global trial index)``, so results are identical
    under any chunking (seed-equivalence; see
    :mod:`repro.kernels.parallel_trials`).
    """

    scheme: ChoiceScheme
    n_balls: int
    tie_break: str
    block: int
    backend: str | None
    root: int
    shards: int | None


def _run_parallel_chunk(
    task: _ParallelChunkTask,
    chunk_trials: int,
    seed_seq: np.random.SeedSequence,
    trial_offset: int,
) -> np.ndarray:
    """Worker body for parallel-trials mode.

    ``seed_seq`` is unused by design — trial streams derive from
    ``task.root`` and the global trial index so the histogram matrix does
    not depend on how trials were partitioned into chunks.
    """
    from repro.kernels import run_parallel_trials

    return run_parallel_trials(
        task.scheme,
        task.n_balls,
        chunk_trials,
        root=task.root,
        trial_offset=trial_offset,
        tie_break=task.tie_break,
        block=task.block,
        backend=task.backend,
        shards=task.shards,
    )


def run_experiment(
    scheme: ChoiceScheme,
    spec: "ExperimentSpec",
    trials: int | None = None,
    *,
    seed: int | None = None,
    tie_break: str | None = None,
    block: int | None = None,
    backend: str | None = None,
    workers: int | None = None,
    chunks: int | None = None,
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
    trials, seed, tie_break, block, backend, workers, chunks:
        Per-call overrides of the corresponding spec fields (``None``
        means "use the spec").
    metrics:
        Registry to instrument the run with; when ``None`` one is created
        if ``spec.metrics_out`` is set (and saved there afterwards).
    progress:
        Callback receiving a :class:`~repro.parallel.engine.ChunkProgress`
        per completed chunk.
    """
    from repro.experiments.config import ExperimentSpec

    if not isinstance(spec, ExperimentSpec):
        raise TypeError(
            f"run_experiment needs an ExperimentSpec, got {type(spec).__name__}"
        )
    overrides = {
        k: v
        for k, v in dict(
            trials=trials,
            seed=seed,
            tie_break=tie_break,
            block=block,
            backend=backend,
            workers=workers,
            chunks=chunks,
        ).items()
        if v is not None
    }
    if overrides:
        spec = spec.replace(**overrides)
    if spec.trials < 1:
        raise ConfigurationError(f"trials must be positive, got {spec.trials}")

    registry = metrics
    if registry is None and (spec.metrics_out or progress is not None):
        registry = MetricsRegistry()
    engine = ExecutionEngine(
        spec.engine_config(), metrics=registry, progress=progress
    )
    registry = engine.metrics  # the engine creates one when none was given

    n_balls_run = spec.balls
    with registry.timer("experiment.total_seconds"):
        if spec.trials_mode == "parallel":
            # Resolve the shared root entropy once, in the driver, so
            # every chunk keys the same per-trial streams even when the
            # spec asked for fresh entropy.
            root = (
                spec.seed
                if spec.seed is not None
                else int(np.random.SeedSequence().entropy)
            )
            histograms = engine.map_chunks(
                _run_parallel_chunk,
                _ParallelChunkTask(
                    scheme=scheme,
                    n_balls=n_balls_run,
                    tie_break=spec.tie_break,
                    block=spec.block,
                    backend=spec.backend,
                    root=root,
                    shards=spec.shards,
                ),
                spec.trials,
                seed=spec.seed,
                offsets=True,
            )
        else:
            histograms = engine.map_chunks(
                _run_chunk,
                _ChunkTask(
                    scheme=scheme,
                    n_balls=n_balls_run,
                    tie_break=spec.tie_break,
                    block=spec.block,
                    backend=spec.backend,
                ),
                spec.trials,
                seed=spec.seed,
            )
        with registry.timer("experiment.aggregate_seconds"):
            aggregator = StreamingLoadAggregator(
                n_bins=scheme.n_bins, n_balls=n_balls_run
            )
            for hist in histograms:
                aggregator.update_histograms(hist)
    registry.increment("experiment.trials", spec.trials)
    # Each ball draws d candidate bins (plus tie-break draws); this
    # estimate tracks RNG pressure across sweeps without instrumenting
    # numpy itself.
    registry.increment(
        "rng.draws_estimate", spec.trials * n_balls_run * scheme.d
    )
    if spec.metrics_out:
        registry.save(spec.metrics_out)
    return ExperimentResult(
        distribution=aggregator.distribution(),
        aggregator=aggregator,
        scheme_description=scheme.describe(),
        metrics=registry if (metrics is not None or spec.metrics_out or progress) else None,
    )
