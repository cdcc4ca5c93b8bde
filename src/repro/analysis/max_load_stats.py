"""Statistical comparison of maximum-load distributions (Table 4's lens).

Table 4 compares the *fraction of trials* whose maximum load equals 3.
Because max loads are small integers concentrated on two or three values,
the right comparison is a contingency test over per-trial max-load counts;
this module provides it plus a percentile-bootstrap confidence interval for
the mean max load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from repro.types import LoadDistribution

__all__ = [
    "MaxLoadComparison",
    "bootstrap_mean_ci",
    "compare_max_loads",
]


def bootstrap_mean_ci(
    values: np.ndarray,
    *,
    n_boot: int = 2000,
    alpha: float = 0.05,
    seed: int = 0,
) -> tuple[float, float, float]:
    """``(mean, low, high)`` percentile-bootstrap CI for the sample mean.

    Used by the certification runner on per-trial maximum loads, whose
    distribution is a few-atom integer law where normal-theory intervals
    misbehave.  Deterministic for a given ``seed``; degenerate samples
    (all equal) return a zero-width interval.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return (float("nan"), float("nan"), float("nan"))
    mean = float(values.mean())
    if np.all(values == values[0]):
        return (mean, mean, mean)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, values.size, size=(n_boot, values.size))
    means = values[idx].mean(axis=1)
    low, high = np.quantile(means, [alpha / 2, 1 - alpha / 2])
    return (mean, float(low), float(high))


@dataclass(frozen=True)
class MaxLoadComparison:
    """Contingency-test comparison of two max-load samples.

    Attributes
    ----------
    p_value:
        From a chi-square contingency test over max-load values (Fisher
        exact for 2x2 tables with small counts).
    table_values:
        The max-load values compared.
    counts_a, counts_b:
        Per-value trial counts for each sample.
    indistinguishable:
        Verdict at the configured significance.
    """

    p_value: float
    table_values: tuple[int, ...]
    counts_a: tuple[int, ...]
    counts_b: tuple[int, ...]
    indistinguishable: bool


def compare_max_loads(
    a: LoadDistribution,
    b: LoadDistribution,
    *,
    significance: float = 0.01,
) -> MaxLoadComparison:
    """Test whether two max-load samples come from one distribution."""
    values = sorted(
        set(a.max_load_per_trial.tolist()) | set(b.max_load_per_trial.tolist())
    )
    counts_a = [int(np.sum(a.max_load_per_trial == v)) for v in values]
    counts_b = [int(np.sum(b.max_load_per_trial == v)) for v in values]
    table = np.array([counts_a, counts_b])
    # Drop all-zero columns (cannot occur by construction, but be safe).
    keep = table.sum(axis=0) > 0
    table = table[:, keep]
    if table.shape[1] < 2:
        p_value = 1.0
    elif table.shape[1] == 2 and table.min() < 5:
        _, p_value = sps.fisher_exact(table)
    else:
        _, p_value, _, _ = sps.chi2_contingency(table)
    return MaxLoadComparison(
        p_value=float(p_value),
        table_values=tuple(values),
        counts_a=tuple(counts_a),
        counts_b=tuple(counts_b),
        indistinguishable=p_value > significance,
    )
