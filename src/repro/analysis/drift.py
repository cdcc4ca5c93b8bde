"""Directly measuring the drift of Lemma 5.

Lemma 5 is the paper's technical heart: under double hashing, with high
probability throughout the process,

    ``E[X_i(t + 1/n) − X_i(t)] = x_{i−1}(t)^d − x_i(t)^d + o(1)``

— the *drift* of the level-``i`` tail count matches the fully-random drift
up to vanishing terms.  This module measures the empirical drift directly:
run the process, and in a window around time ``t`` count how often a ball's
``d`` choices all have load ≥ i−1 but not all ≥ i (the event that increments
``X_i``), comparing the frequency against ``x_{i−1}^d − x_i^d`` evaluated at
the empirical tails.  Agreement here *is* Lemma 5, finite-n version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.base import ChoiceScheme
from repro.kernels.reference import place_ball
from repro.rng import default_generator

__all__ = ["DriftMeasurement", "measure_drift"]


@dataclass(frozen=True)
class DriftMeasurement:
    """Empirical vs. predicted drift of ``X_i`` in a time window.

    Attributes
    ----------
    level:
        The load level ``i`` measured.
    empirical_rate:
        Fraction of window balls that incremented ``X_i`` (all choices at
        load ≥ i−1, placement created a load-i bin).
    predicted_rate:
        ``x_{i−1}^d − x_i^d``, trapezoidally averaged between the tails at
        the window start and end (the tails move over a finite window, so
        a single-endpoint evaluation would be biased by O(window/n)) —
        the fully-random drift the lemma says double hashing matches.
    window_balls:
        Number of balls in the measurement window.
    """

    level: int
    empirical_rate: float
    predicted_rate: float
    window_balls: int

    @property
    def gap(self) -> float:
        """|empirical − predicted| — Lemma 5 says o(1) in n."""
        return abs(self.empirical_rate - self.predicted_rate)

    @property
    def standard_error(self) -> float:
        """Binomial standard error of the empirical rate."""
        p = max(min(self.predicted_rate, 1.0), 1e-12)
        return float(np.sqrt(p * (1 - p) / max(self.window_balls, 1)))


def measure_drift(
    scheme: ChoiceScheme,
    level: int,
    *,
    warmup_balls: int | None = None,
    window_balls: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> DriftMeasurement:
    """Measure the level-``level`` drift in a window after a warm-up.

    Parameters
    ----------
    scheme:
        Choice generator; ``n_bins`` sets the scale.
    level:
        The tail level ``i ≥ 1`` whose drift is measured.
    warmup_balls:
        Balls thrown before measuring (default ``n_bins // 2`` — inside
        the process, where all levels up to 2 are populated).
    window_balls:
        Measurement window length (default ``n_bins // 4``).  The window
        is short relative to ``n`` so the tails move little within it.
    """
    if level < 1:
        raise ConfigurationError(f"level must be >= 1, got {level}")
    rng = default_generator(seed)
    n = scheme.n_bins
    if warmup_balls is None:
        warmup_balls = n // 2
    if window_balls is None:
        window_balls = max(n // 4, 1)
    loads = np.zeros(n, dtype=np.int64)
    for _ in range(warmup_balls):
        place_ball(loads, scheme.single(rng), rng)

    def rate_now() -> float:
        x_below = float((loads >= level - 1).mean())
        x_at = float((loads >= level).mean())
        return x_below**scheme.d - x_at**scheme.d

    predicted_start = rate_now()
    increments = 0
    for _ in range(window_balls):
        choices = scheme.single(rng)
        chosen = place_ball(loads, choices, rng)
        if loads[chosen] == level:  # the placement created a load-`level` bin
            increments += 1
    # Trapezoid over the window: the drift function is smooth in t, so the
    # start/end average matches the window-mean rate to O((window/n)^2).
    predicted = 0.5 * (predicted_start + rate_now())
    return DriftMeasurement(
        level=level,
        empirical_rate=increments / window_balls,
        predicted_rate=predicted,
        window_balls=window_balls,
    )
