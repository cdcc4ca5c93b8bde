"""Aggregation of simulation results into the paper's table statistics.

:func:`trial_histograms` reduces a chunk's per-trial loads to per-trial
load histograms, and :class:`StreamingLoadAggregator` folds those into a
:class:`~repro.types.LoadDistribution` plus per-level sample statistics
(Table 5's min/avg/max/std).  The aggregator is a Welford-style accumulator
for runs too large to keep all per-trial loads in memory: trials are fed in
chunks and only O(max_load) state is retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.types import LevelStats, LoadDistribution, TrialBatchResult

__all__ = [
    "StreamingLoadAggregator",
    "trial_histograms",
]


def trial_histograms(loads: np.ndarray) -> np.ndarray:
    """Per-trial load histograms: ``(trials, max_load + 1)`` counts.

    Row ``t`` is ``bincount(loads[t])``, padded to a common width.  This is
    the compact summary a worker process ships back to the parent (a few
    dozen integers per trial instead of ``n_bins``).
    """
    loads = np.asarray(loads)
    width = int(loads.max(initial=0)) + 1
    out = np.zeros((loads.shape[0], width), dtype=np.int64)
    for t in range(loads.shape[0]):
        out[t] = np.bincount(loads[t], minlength=width)
    return out


@dataclass
class StreamingLoadAggregator:
    """Welford-style streaming aggregation of per-trial load histograms.

    Feed chunks of trials via :meth:`update`; retrieve a merged
    :class:`LoadDistribution` and per-level :class:`LevelStats` at any time.
    Memory is O(max observed load), independent of trial count — required
    for paper-scale runs (10^4 trials × 2^18 bins would not fit as raw
    loads).
    """

    n_bins: int
    n_balls: int
    trials: int = 0
    _counts: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    _max_loads: list[int] = field(default_factory=list)
    # Welford accumulators per load level: count-mean and M2 of the
    # per-trial number of bins at that level.
    _mean: np.ndarray = field(default_factory=lambda: np.zeros(1))
    _m2: np.ndarray = field(default_factory=lambda: np.zeros(1))
    # Mins start at int64-max ("no data"); _grow keeps that convention for
    # levels added before any trial has been folded in.
    _mins: np.ndarray = field(
        default_factory=lambda: np.full(1, np.iinfo(np.int64).max, np.int64)
    )
    _maxs: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))

    def _grow(self, width: int) -> None:
        """Widen the per-level arrays to ``width`` levels.

        A trial processed before level L first appeared contributed zero
        bins at L, so mins must reflect those implicit zeros.
        """
        current = len(self._counts)
        if width <= current:
            return
        pad = width - current
        self._counts = np.concatenate([self._counts, np.zeros(pad, np.int64)])
        self._mean = np.concatenate([self._mean, np.zeros(pad)])
        self._m2 = np.concatenate([self._m2, np.zeros(pad)])
        new_mins = np.zeros(pad, np.int64)
        if self.trials == 0:
            new_mins[:] = np.iinfo(np.int64).max
        self._mins = np.concatenate([self._mins, new_mins])
        self._maxs = np.concatenate([self._maxs, np.zeros(pad, np.int64)])

    def update(self, batch: TrialBatchResult) -> None:
        """Fold a chunk of trials into the aggregate."""
        if (batch.n_bins, batch.n_balls) != (self.n_bins, self.n_balls):
            raise ValueError(
                "geometry mismatch: aggregator is "
                f"({self.n_bins}, {self.n_balls}), batch is "
                f"({batch.n_bins}, {batch.n_balls})"
            )
        self.update_histograms(trial_histograms(batch.loads))

    def update_histograms(self, per_trial: np.ndarray) -> None:
        """Fold a ``(chunk_trials, width)`` per-trial histogram matrix.

        Row ``t`` is the load histogram of one trial (``row[i]`` = number of
        bins with load exactly ``i``).  This is the cross-process transport
        format: workers ship these tiny matrices instead of raw loads.
        """
        per_trial = np.asarray(per_trial, dtype=np.int64)
        self._grow(per_trial.shape[1])
        width = len(self._counts)
        if per_trial.shape[1] < width:
            pad = width - per_trial.shape[1]
            per_trial = np.pad(per_trial, ((0, 0), (0, pad)))
        for row in per_trial:
            nonzero = np.flatnonzero(row)
            self._max_loads.append(int(nonzero[-1]) if nonzero.size else 0)
        self._counts += per_trial.sum(axis=0)
        self._mins = np.minimum(self._mins, per_trial.min(axis=0))
        self._maxs = np.maximum(self._maxs, per_trial.max(axis=0))
        # Chunked Welford merge (Chan et al. parallel variance update).
        m = per_trial.shape[0]
        chunk_mean = per_trial.mean(axis=0)
        chunk_m2 = ((per_trial - chunk_mean) ** 2).sum(axis=0)
        if self.trials == 0:
            self._mean = chunk_mean
            self._m2 = chunk_m2
        else:
            delta = chunk_mean - self._mean
            total = self.trials + m
            self._mean += delta * (m / total)
            self._m2 += chunk_m2 + delta**2 * (self.trials * m / total)
        self.trials += m

    def merge(self, other: "StreamingLoadAggregator") -> None:
        """Fold another aggregator into this one (Chan et al. merge).

        The pairwise form of the chunked Welford update: two aggregators
        built from disjoint trial sets merge into exactly the aggregate
        of their union — associative and commutative up to float
        rounding (``tests/core`` pins agreement with the batch formulas).
        This is how sharded giant-``n`` runs combine per-shard partial
        aggregates in O(max_load) memory (see ``docs/scale.md``).
        """
        if (other.n_bins, other.n_balls) != (self.n_bins, self.n_balls):
            raise ValueError(
                "geometry mismatch: aggregator is "
                f"({self.n_bins}, {self.n_balls}), other is "
                f"({other.n_bins}, {other.n_balls})"
            )
        if other.trials == 0:
            return
        width = max(len(self._counts), len(other._counts))
        self._grow(width)
        pad = width - len(other._counts)
        # Levels the other aggregator never saw held zero bins in all of
        # its trials: zero-padding is exact for every accumulator.
        o_counts = np.pad(other._counts, (0, pad))
        o_mean = np.pad(other._mean.astype(np.float64), (0, pad))
        o_m2 = np.pad(other._m2.astype(np.float64), (0, pad))
        o_mins = np.pad(other._mins, (0, pad))
        o_maxs = np.pad(other._maxs, (0, pad))
        self._counts += o_counts
        self._max_loads.extend(other._max_loads)
        self._mins = np.minimum(self._mins, o_mins)
        self._maxs = np.maximum(self._maxs, o_maxs)
        if self.trials == 0:
            self._mean = o_mean
            self._m2 = o_m2
        else:
            t1, t2 = self.trials, other.trials
            total = t1 + t2
            delta = o_mean - self._mean
            self._mean += delta * (t2 / total)
            self._m2 += o_m2 + delta**2 * (t1 * t2 / total)
        self.trials += other.trials

    def distribution(self) -> LoadDistribution:
        """The merged load distribution over all trials seen so far."""
        if self.trials == 0:
            raise ValueError("no trials aggregated yet")
        return LoadDistribution(
            n_bins=self.n_bins,
            n_balls=self.n_balls,
            trials=self.trials,
            counts=self._counts.copy(),
            max_load_per_trial=np.array(self._max_loads, dtype=np.int64),
        )

    def level_stats(self, load: int) -> LevelStats:
        """Sample statistics of per-trial bin counts at ``load``."""
        if self.trials == 0:
            raise ValueError("no trials aggregated yet")
        if load >= len(self._counts):
            return LevelStats(load=load, minimum=0, maximum=0, mean=0.0, std=0.0)
        var = self._m2[load] / (self.trials - 1) if self.trials > 1 else 0.0
        return LevelStats(
            load=load,
            minimum=int(self._mins[load]),
            maximum=int(self._maxs[load]),
            mean=float(self._mean[load]),
            std=float(np.sqrt(var)),
        )
