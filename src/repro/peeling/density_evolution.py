"""Density evolution — the fluid limit of peeling.

For a random d-uniform hypergraph with ``m = c·n`` edges (vertex degrees
asymptotically Poisson(c·d)), the probability ``β_t`` that a random
edge-vertex incidence survives ``t`` peeling rounds obeys

    ``β_{t+1} = (1 − e^{−c·d·β_t})^{d−1}``,     β_0 = 1.

(An incidence survives when each of the other ``d−1`` vertices of its edge
has at least one *other* surviving incidence; "another surviving incidence
at a Poisson(cd) vertex" has probability ``1 − e^{−c·d·β}``.)

Peeling succeeds asymptotically iff the recursion converges to 0; the
threshold ``c*_d`` is the largest density for which it does.  This module
computes the fixed point, the threshold (bisection — validated against the
known literature values, transcribed once as the
``derived/peeling-threshold/d*`` anchors in :mod:`repro.certify.anchors`),
and the asymptotic 2-core size.

The same equations govern double-hashed hypergraphs — that is the follow-up
paper's analogue of this paper's Theorem 8 — which the experiment module
checks empirically.
"""

from __future__ import annotations

import functools
import math

from repro.errors import ConfigurationError

__all__ = [
    "survival_fixed_point",
    "peeling_threshold",
    "core_edge_fraction",
]

_CONVERGED = 1e-12


def _validate(c: float, d: int) -> None:
    if c < 0:
        raise ConfigurationError(f"density must be non-negative, got {c}")
    if d < 2:
        raise ConfigurationError(f"d must be at least 2, got {d}")


def survival_fixed_point(c: float, d: int, *, max_iters: int = 20000) -> float:
    """Limit of the survival recursion ``β ← (1 − e^{−cdβ})^{d−1}``.

    Returns 0.0 when peeling succeeds asymptotically at density ``c``; a
    positive fixed point is the incidence-survival probability of the core.
    """
    _validate(c, d)
    beta = 1.0
    for _ in range(max_iters):
        new = (1.0 - math.exp(-c * d * beta)) ** (d - 1)
        if abs(new - beta) < _CONVERGED:
            return 0.0 if new < 1e-9 else new
        beta = new
    return beta  # pragma: no cover - slow convergence near threshold


@functools.cache
def peeling_threshold(d: int, *, precision: float = 1e-9) -> float:
    """Largest density ``c`` at which peeling succeeds w.h.p.

    The bisection takes about 230,000 fixed-point steps (0.1 s), so each
    ``(d, precision)`` is solved once per process and then served from a
    cache; an invalid ``d`` raises on every call.

    >>> round(peeling_threshold(3), 3)
    0.818
    """
    if d < 2:
        raise ConfigurationError(f"d must be at least 2, got {d}")
    if d == 2:
        # 2-uniform: ordinary graphs; the 2-core appears at c = 1/2
        # (cycle emergence), recoverable from the same recursion.
        pass
    lo, hi = 0.01, 1.5
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if survival_fixed_point(mid, d) == 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def core_edge_fraction(c: float, d: int) -> float:
    """Asymptotic fraction of edges in the 2-core at density ``c``.

    An edge is in the core iff all ``d`` of its incidences survive; with
    survival fixed point β, that is ``(1 − e^{−cdβ})^d = β^{d/(d−1)}``.
    """
    beta = survival_fixed_point(c, d)
    if beta == 0.0:
        return 0.0
    return beta ** (d / (d - 1))
