"""The threshold-comparison experiment of the follow-up paper [30].

Sweep the edge density ``c = m/n`` across the peeling threshold and
measure, for fully-random vs double-hashed edges:

- the **complete-recovery probability** (empty 2-core), and
- the **mean fraction of edges left in the core**.

This experiment exposes the one place the two schemes genuinely part ways —
the paper's own footnote-1 caveat.  Two balls pick the *same set* of d bins
with probability ``O(n^{−d})`` under full randomness but ``Θ(1/(n·φ(n)))``
under double hashing; with ``m = Θ(n)`` edges there are ``Θ(n²)`` pairs, so
a duplicate hyperedge exists with **constant** probability — and a
duplicated edge is an unpeelable 2-core of size 2.  Consequently:

- complete recovery fails with constant probability under double hashing
  even well below the density-evolution threshold (empirically, every such
  failure is a pure duplicate-edge core — verified in the test suite);
- the *fraction peeled* is unaffected: stuck cores have O(1) size, so the
  core fraction is O(1/n) below threshold and matches density evolution
  above it for both schemes — this is the sense in which the fluid-limit
  equivalence (this paper's Theorem 8) carries over to peeling.

Deployed IBLT/erasure-code implementations using double hashing must
therefore either tolerate O(1)-size residue or deduplicate key collisions —
a design note absent from naive "swap in double hashing" advice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.peeling.decoder import peel
from repro.peeling.density_evolution import peeling_threshold
from repro.peeling.hypergraph import build_hypergraph
from repro.rng import default_generator

__all__ = ["ThresholdExperiment", "threshold_experiment"]


@dataclass(frozen=True)
class ThresholdExperiment:
    """Results of a density sweep.

    Attributes
    ----------
    densities:
        Swept ``c = m/n`` values.
    success_random, success_double:
        Success probability (empty 2-core) per density, per scheme.
    asymptotic_threshold:
        The density-evolution threshold ``c*_d`` for reference.
    """

    n_vertices: int
    d: int
    densities: np.ndarray
    success_random: np.ndarray
    success_double: np.ndarray
    core_fraction_random: np.ndarray
    core_fraction_double: np.ndarray
    asymptotic_threshold: float

    def empirical_threshold(self, scheme: str = "double") -> float:
        """Density where the success curve crosses 1/2 (linear interp)."""
        curve = (
            self.success_double if scheme == "double" else self.success_random
        )
        below = np.flatnonzero(curve < 0.5)
        if below.size == 0:
            return float(self.densities[-1])
        i = below[0]
        if i == 0:
            return float(self.densities[0])
        c0, c1 = self.densities[i - 1], self.densities[i]
        y0, y1 = curve[i - 1], curve[i]
        if y0 == y1:  # pragma: no cover - flat segment
            return float(c0)
        return float(c0 + (y0 - 0.5) * (c1 - c0) / (y0 - y1))


def threshold_experiment(
    n_vertices: int,
    d: int,
    densities: np.ndarray | list[float],
    trials: int,
    *,
    seed: int | None = None,
    backend: str | None = None,
) -> ThresholdExperiment:
    """Sweep densities; measure peeling success for both schemes.

    Parameters
    ----------
    n_vertices:
        Hypergraph vertex count (larger = sharper threshold).
    d:
        Edge size.
    densities:
        Edge densities ``c = m/n`` to test, ascending.
    trials:
        Hypergraphs per (density, scheme) cell.
    seed:
        Seed for hypergraph construction (one stream across the sweep).
    backend:
        Peeling-kernel backend (``"numpy"``), or None for env
        resolution.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    densities = np.asarray(densities, dtype=float)
    if densities.size == 0:
        raise ConfigurationError("densities must be non-empty")
    rng = default_generator(seed)
    schemes = {
        "random": FullyRandomChoices(n_vertices, d),
        "double": DoubleHashingChoices(n_vertices, d),
    }
    success = {name: np.zeros(len(densities)) for name in schemes}
    core_frac = {name: np.zeros(len(densities)) for name in schemes}
    for i, c in enumerate(densities):
        m = int(round(c * n_vertices))
        for name, scheme in schemes.items():
            wins = 0
            fracs = 0.0
            for _ in range(trials):
                graph = build_hypergraph(scheme, m, seed=rng)
                result = peel(graph, backend=backend)
                wins += result.success
                fracs += result.core_fraction
            success[name][i] = wins / trials
            core_frac[name][i] = fracs / trials
    return ThresholdExperiment(
        n_vertices=n_vertices,
        d=d,
        densities=densities,
        success_random=success["random"],
        success_double=success["double"],
        core_fraction_random=core_frac["random"],
        core_fraction_double=core_frac["double"],
        asymptotic_threshold=peeling_threshold(d),
    )
