"""Shared result dataclasses used across the :mod:`repro` library.

The simulation engines return :class:`LoadDistribution` objects (aggregated
across trials) rather than raw per-trial arrays, so that experiment code and
tests speak one vocabulary: *fraction of bins with load exactly i*, *fraction
with load at least i*, *maximum load*, and per-level sample statistics.

A run's aggregate is its per-trial histogram matrix
(:func:`trial_histograms`); :func:`load_distribution` and
:func:`level_stats` are the one place each statistic is computed from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LoadDistribution",
    "LevelStats",
    "TrialBatchResult",
    "QueueingResult",
    "level_stats",
    "load_distribution",
    "trial_histograms",
]


@dataclass(frozen=True)
class LevelStats:
    """Per-load-level sample statistics across trials (paper Table 5 format).

    Attributes
    ----------
    load:
        The load level these statistics describe.
    minimum, maximum:
        Extremes of the *count of bins at this load* across trials.
    mean:
        Mean count of bins at this load across trials.
    std:
        Sample standard deviation (ddof=1) of the count across trials.
    """

    load: int
    minimum: int
    maximum: int
    mean: float
    std: float


@dataclass(frozen=True)
class LoadDistribution:
    """Aggregated bin-load distribution over one or more trials.

    Attributes
    ----------
    n_bins:
        Number of bins per trial.
    n_balls:
        Number of balls thrown per trial.
    trials:
        Number of independent trials aggregated.
    counts:
        ``counts[i]`` is the total number of bins (summed over all trials)
        that ended with load exactly ``i``.  ``counts.sum() == trials * n_bins``.
    max_load_per_trial:
        Integer array of length ``trials`` with each trial's maximum load.
    """

    n_bins: int
    n_balls: int
    trials: int
    counts: np.ndarray
    max_load_per_trial: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(
            self,
            "max_load_per_trial",
            np.asarray(self.max_load_per_trial, dtype=np.int64),
        )

    # -- derived quantities -------------------------------------------------

    @property
    def fractions(self) -> np.ndarray:
        """Fraction of bins with load exactly ``i`` (averaged over trials)."""
        return self.counts / float(self.trials * self.n_bins)

    @property
    def tail_fractions(self) -> np.ndarray:
        """Fraction of bins with load **at least** ``i``.

        Index 0 is always 1.0; this matches the ``x_i`` variables of the
        paper's fluid-limit analysis (Section 3).
        """
        frac = self.fractions
        return np.cumsum(frac[::-1])[::-1]

    @property
    def max_load(self) -> int:
        """Largest load observed in any trial."""
        return int(self.max_load_per_trial.max())

    def fraction_at(self, load: int) -> float:
        """Fraction of bins with load exactly ``load`` (0.0 if beyond range)."""
        if load < 0:
            raise ValueError(f"load must be non-negative, got {load}")
        if load >= len(self.counts):
            return 0.0
        return float(self.counts[load]) / float(self.trials * self.n_bins)

    def tail_at(self, load: int) -> float:
        """Fraction of bins with load at least ``load``."""
        if load < 0:
            raise ValueError(f"load must be non-negative, got {load}")
        if load >= len(self.counts):
            return 0.0
        return float(self.counts[load:].sum()) / float(self.trials * self.n_bins)

    def fraction_trials_max_load(self, load: int) -> float:
        """Fraction of trials whose maximum load equals ``load`` (Table 4)."""
        return float(np.mean(self.max_load_per_trial == load))


@dataclass(frozen=True)
class TrialBatchResult:
    """Raw per-trial output of the vectorized engine.

    Attributes
    ----------
    loads:
        ``(trials, n_bins)`` integer array of final bin loads.
    """

    n_bins: int
    n_balls: int
    loads: np.ndarray = field(repr=False)

    def distribution(self) -> LoadDistribution:
        """Aggregate the raw loads into a :class:`LoadDistribution`."""
        return load_distribution(
            trial_histograms(self.loads), self.n_bins, self.n_balls
        )


def trial_histograms(loads: np.ndarray) -> np.ndarray:
    """Per-trial load histograms: ``(trials, max_load + 1)`` counts.

    Row ``t`` is ``bincount(loads[t])``, padded to a common width.  This is
    the compact summary a worker process ships back to the parent (a few
    dozen integers per trial instead of ``n_bins``) and the checkpoint
    stores.
    """
    loads = np.asarray(loads)
    width = int(loads.max(initial=0)) + 1
    out = np.zeros((loads.shape[0], width), dtype=np.int64)
    for t in range(loads.shape[0]):
        out[t] = np.bincount(loads[t], minlength=width)
    return out


def load_distribution(
    histograms: np.ndarray, n_bins: int, n_balls: int
) -> LoadDistribution:
    """The :class:`LoadDistribution` of a ``(trials, width)`` histogram matrix.

    Counts are the column sums; a trial's maximum load is the last nonzero
    column of its row, in row order.
    """
    hist = np.asarray(histograms, dtype=np.int64)
    levels = np.arange(hist.shape[1])
    return LoadDistribution(
        n_bins=n_bins,
        n_balls=n_balls,
        trials=hist.shape[0],
        counts=hist.sum(axis=0),
        max_load_per_trial=np.where(hist > 0, levels, 0).max(axis=1),
    )


def level_stats(histograms: np.ndarray, load: int) -> LevelStats:
    """Sample statistics of the per-trial count of bins at ``load``.

    Column ``load`` of a ``(trials, width)`` histogram matrix; a load past
    the width held no bin in any trial, so its statistics are all zero.
    """
    hist = np.asarray(histograms, dtype=np.int64)
    if load >= hist.shape[1]:
        return LevelStats(load=load, minimum=0, maximum=0, mean=0.0, std=0.0)
    column = hist[:, load]
    trials = len(column)
    return LevelStats(
        load=load,
        minimum=int(column.min()),
        maximum=int(column.max()),
        mean=float(column.sum() / trials),
        std=float(column.std(ddof=1)) if trials > 1 else 0.0,
    )


@dataclass(frozen=True)
class QueueingResult:
    """Output of a supermarket-model simulation run.

    Attributes
    ----------
    mean_sojourn_time:
        Average time in system (waiting + service) over all departures after
        burn-in; the quantity reported in the paper's Table 8.
    completed_jobs:
        Number of departures contributing to the mean.
    mean_queue_length:
        Time-average number of jobs per queue (after burn-in).
    sim_time:
        Total simulated time, including burn-in.
    """

    mean_sojourn_time: float
    completed_jobs: int
    mean_queue_length: float
    sim_time: float
    tail_fractions: np.ndarray | None = None
    """Optional time-averaged fraction of queues with at least ``i`` jobs
    (index 0 is 1.0) — comparable to the fluid equilibrium
    ``π_i = λ^((d^i−1)/(d−1))``.  Populated when the simulator is asked to
    track queue lengths."""
    n_arrivals: int | None = None
    """Total arrival events over the whole run (burn-in included) — the
    event-throughput numerator for the metrics layer.  ``None`` on results
    from producers that never counted events."""
    n_departures: int | None = None
    """Total departure events over the whole run (burn-in included)."""
    busy_fraction: float | None = None
    """Time-averaged fraction of queues busy (serving at least one job)
    over ``[burn_in, sim_time]``.  Equals ``λ`` in steady state — a useful
    built-in sanity check on simulator output."""

    @property
    def n_events(self) -> int | None:
        """Total committed events (arrivals + departures), if counted."""
        if self.n_arrivals is None or self.n_departures is None:
            return None
        return self.n_arrivals + self.n_departures

    @property
    def events_per_time(self) -> float | None:
        """Committed events per simulated time unit, if counted."""
        events = self.n_events
        return None if events is None else events / self.sim_time
