"""Statistical meaning of "essentially indistinguishable".

The paper's empirical claim is that, at every load level, the fraction of
bins under double hashing sits *within sampling error* of the fraction under
fully random hashing.  This module quantifies that:

- :func:`chi_square_comparison` — a two-sample chi-square homogeneity test
  over the pooled load histograms (small-expectation cells merged);
- :func:`total_variation` — TV distance between the two empirical load
  distributions;
- :func:`compare_distributions` — both of the above in one report object
  with an overall verdict, plus the largest per-level deviation in pooled
  standard errors (the yardstick the paper's "well within experimental
  variance" refers to);
- :func:`cramers_v` — the chi-square effect size, so "not significant"
  can be distinguished from "significant but negligible";
- :func:`holm_correction` — step-down multiple-testing control, used by
  the certification runner when one claim is tested across many tables
  and load levels at once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from repro.types import LoadDistribution

__all__ = [
    "ComparisonReport",
    "HolmResult",
    "chi_square_comparison",
    "compare_distributions",
    "cramers_v",
    "holm_correction",
    "total_variation",
]


def _aligned_counts(
    a: LoadDistribution, b: LoadDistribution
) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(a.counts), len(b.counts))
    ca = np.zeros(width, dtype=np.int64)
    cb = np.zeros(width, dtype=np.int64)
    ca[: len(a.counts)] = a.counts
    cb[: len(b.counts)] = b.counts
    return ca, cb


def total_variation(a: LoadDistribution, b: LoadDistribution) -> float:
    """Total-variation distance between the two empirical load laws."""
    ca, cb = _aligned_counts(a, b)
    pa = ca / ca.sum()
    pb = cb / cb.sum()
    return 0.5 * float(np.abs(pa - pb).sum())


def chi_square_comparison(
    a: LoadDistribution,
    b: LoadDistribution,
    *,
    min_expected: float = 5.0,
) -> tuple[float, float, int]:
    """Two-sample chi-square homogeneity test over pooled load histograms.

    Cells with expected count below ``min_expected`` are merged into their
    lower neighbour (standard practice for sparse tails).  Returns
    ``(statistic, p_value, dof)``.  A *large* p-value means the two load
    distributions are statistically indistinguishable at this sample size.
    """
    ca, cb = _aligned_counts(a, b)
    # Merge sparse tail cells from the top down.
    while len(ca) > 2:
        total = ca[-1] + cb[-1]
        expected_a = total * ca.sum() / (ca.sum() + cb.sum())
        if min(expected_a, total - expected_a) >= min_expected:
            break
        ca = np.concatenate([ca[:-2], [ca[-2] + ca[-1]]])
        cb = np.concatenate([cb[:-2], [cb[-2] + cb[-1]]])
    keep = (ca + cb) > 0
    table = np.vstack([ca[keep], cb[keep]])
    if table.shape[1] < 2:
        return (0.0, 1.0, 0)
    statistic, p_value, dof, _ = sps.chi2_contingency(table)
    return (float(statistic), float(p_value), int(dof))


def cramers_v(a: LoadDistribution, b: LoadDistribution) -> float:
    """Cramér's V effect size for the two-sample homogeneity table.

    For a 2-row contingency table ``V = sqrt(chi2 / N)`` with ``N`` the
    pooled observation count.  V is scale-free in [0, 1]; values below
    ~0.01 are conventionally negligible even when a huge sample makes
    the chi-square test formally significant.
    """
    statistic, _, dof = chi_square_comparison(a, b)
    if dof == 0:
        return 0.0
    ca, cb = _aligned_counts(a, b)
    n_obs = float(ca.sum() + cb.sum())
    return float(np.sqrt(statistic / max(n_obs, 1.0)))


@dataclass(frozen=True)
class HolmResult:
    """Outcome of a Holm step-down multiple-testing correction.

    Attributes
    ----------
    adjusted:
        Holm-adjusted p-values, in the input order (monotone-enforced,
        clipped at 1).
    reject:
        Per-hypothesis rejection flags at the family-wise ``alpha``.
    alpha:
        The family-wise significance level used.
    """

    adjusted: tuple[float, ...]
    reject: tuple[bool, ...]
    alpha: float

    @property
    def any_rejected(self) -> bool:
        """Whether any hypothesis in the family was rejected."""
        return any(self.reject)


def holm_correction(
    p_values: Sequence[float], *, alpha: float = 0.05
) -> HolmResult:
    """Holm's step-down correction over a family of p-values.

    Controls the family-wise error rate at ``alpha`` without the
    independence assumptions of Šidák: sort the p-values, compare the
    k-th smallest against ``alpha / (m - k)``, and stop at the first
    acceptance.  Adjusted p-values are ``max-accumulated`` so they are
    monotone in the raw ordering and directly comparable to ``alpha``.

    Used by the certification runner: the paper's equivalence claim is
    tested once per table (and per load level inside a table), so a raw
    1%-significance test repeated 20 times would reject a true claim
    ~18% of the time; Holm keeps the family-wise rate at ``alpha``.
    """
    p = np.asarray(list(p_values), dtype=float)
    if p.size == 0:
        return HolmResult(adjusted=(), reject=(), alpha=alpha)
    if np.any((p < 0) | (p > 1) | ~np.isfinite(p)):
        raise ValueError("p-values must be finite and in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    factors = m - np.arange(m)
    stepped = np.maximum.accumulate(p[order] * factors)
    adjusted = np.minimum(stepped, 1.0)
    reject_sorted = np.zeros(m, dtype=bool)
    for k in range(m):
        if p[order][k] <= alpha / (m - k):
            reject_sorted[k] = True
        else:
            break
    adj = np.empty(m)
    rej = np.empty(m, dtype=bool)
    adj[order] = adjusted
    rej[order] = reject_sorted
    return HolmResult(
        adjusted=tuple(float(x) for x in adj),
        reject=tuple(bool(x) for x in rej),
        alpha=alpha,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Full indistinguishability report between two load distributions.

    Attributes
    ----------
    tv_distance:
        Total-variation distance between the empirical laws.
    chi2_statistic, p_value, dof:
        Chi-square homogeneity test results.
    max_deviation:
        Largest |fraction difference| over load levels.
    max_deviation_sigmas:
        That deviation divided by its pooled standard error — the "how many
        sampling sigmas apart are they" number.
    indistinguishable:
        Verdict at the configured significance level.
    """

    tv_distance: float
    chi2_statistic: float
    p_value: float
    dof: int
    max_deviation: float
    max_deviation_sigmas: float
    indistinguishable: bool


def compare_distributions(
    a: LoadDistribution,
    b: LoadDistribution,
    *,
    significance: float = 0.01,
) -> ComparisonReport:
    """Compare two load distributions; verdict via the chi-square test.

    ``indistinguishable`` is True when the homogeneity test fails to reject
    at ``significance`` — i.e. the data are consistent with one common load
    law, the paper's empirical claim.
    """
    ca, cb = _aligned_counts(a, b)
    pa = ca / ca.sum()
    pb = cb / cb.sum()
    diffs = np.abs(pa - pb)
    # Pooled standard error per level.
    pooled = (ca + cb) / (ca.sum() + cb.sum())
    se = np.sqrt(
        np.maximum(pooled * (1 - pooled), 1e-300)
        * (1.0 / ca.sum() + 1.0 / cb.sum())
    )
    with np.errstate(invalid="ignore"):
        sigmas = np.where(diffs > 0, diffs / se, 0.0)
    statistic, p_value, dof = chi_square_comparison(a, b)
    return ComparisonReport(
        tv_distance=total_variation(a, b),
        chi2_statistic=statistic,
        p_value=p_value,
        dof=dof,
        max_deviation=float(diffs.max()),
        max_deviation_sigmas=float(sigmas.max()),
        indistinguishable=p_value > significance,
    )
