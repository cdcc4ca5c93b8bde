"""Double hashing — the paper's subject scheme.

For each ball, draw ``f`` uniform on ``[0, n)`` and a stride ``g`` uniform
over the units mod ``n`` (numbers in ``[1, n)`` coprime to ``n``); the ``d``
choices are ``h_k = (f + k·g) mod n`` for ``k = 0, …, d−1``.

Because ``g`` is a unit, the map ``k ↦ k·g mod n`` is injective on
``[0, n)``, so the ``d`` choices are always distinct (for ``d ≤ n``) — the
property the paper relies on when comparing against fully-random choices
*without replacement*.

A batch takes two draws per ball and builds the choices plane by plane
(``h_k = h_{k−1} + g``, wrapped once), making this scheme strictly cheaper
than the fully-random scheme per ball — the practical advantage the paper
highlights for hardware and software implementations (two hash values
instead of ``d``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchemeError
from repro.hashing.base import ChoiceScheme
from repro.numtheory import count_units, sample_units

__all__ = ["DoubleHashingChoices", "progressions"]


def progressions(f: np.ndarray, g: np.ndarray, n: int, d: int) -> np.ndarray:
    """The ``(d, len(f))`` planes ``(f + k·g) mod n``, ``k = 0, …, d−1``.

    Plane ``k`` is ``plane[k-1] + g mod n`` computed with one add and a
    branchless wrap (``f`` and ``g`` must lie in ``[0, n)``), skipping a
    broadcast multiply and a modulo.  Every double-hashing scheme builds
    its progressions here.
    """
    out = np.empty((d, f.size), dtype=np.int64)
    out[0] = f
    for k in range(1, d):
        plane = out[k]
        np.add(out[k - 1], g, out=plane)
        plane -= n
        wrap = plane >> 63  # -1 where the subtraction went negative
        wrap &= n
        plane += wrap
    return out


class DoubleHashingChoices(ChoiceScheme):
    """Choices ``(f + k·g) mod n`` with ``f`` uniform, ``g`` a uniform unit.

    Parameters
    ----------
    n_bins, d:
        Table geometry.  The paper recommends ``n_bins`` prime (all nonzero
        strides valid) or a power of two (odd strides valid); any modulus
        with at least one unit stride is accepted, with general moduli
        handled by rejection sampling of strides.

    Notes
    -----
    The choices of a single ball are **pairwise uniform**: each ``h_k`` is
    marginally uniform, and each pair ``(h_j, h_k)``, ``j ≠ k``, is uniform
    over ordered pairs of distinct bins — the sufficient condition the paper
    states for all of its results (Section 1, final remark).  The test suite
    verifies this empirically via :mod:`repro.hashing.pairwise`.
    """

    def __init__(self, n_bins: int, d: int) -> None:
        super().__init__(n_bins, d)
        if n_bins >= 2 and count_units(n_bins) == 0:  # pragma: no cover
            raise SchemeError(f"no valid strides mod {n_bins}")

    @property
    def distinct(self) -> bool:
        """True: the stride is a unit, so the ``d`` probes never collide."""
        return True

    def batch(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Arithmetic progressions ``(f + k·g) mod n`` with unit strides.

        The transposed *view* of :meth:`batch_planar` (same draws, not
        contiguous).
        """
        return self.batch_planar(trials, rng).T

    def batch_planar(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Planar ``(d, trials)`` choices via the stride recurrence.

        Draws ``f`` then ``g`` (nothing when ``n == 1``) and builds the
        planes with :func:`progressions` — this is the kernel layer's
        generation primitive.
        """
        n = self.n_bins
        if n == 1:
            return np.zeros((self.d, trials), dtype=np.int64)
        f = rng.integers(0, n, size=trials, dtype=np.int64)
        return progressions(f, sample_units(n, trials, rng), n, self.d)

    def batch_with_hashes(
        self, trials: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`batch` but also return the raw ``(f, g)`` pairs.

        Used by analysis code (e.g. ancestry-list studies) that needs to
        reason about the underlying hash values, not just the choices.
        Shares :meth:`batch`'s ``n == 1`` early return (choices are all
        zeros, ``f = 0`` and ``g = 1``, no randomness consumed).
        """
        n = self.n_bins
        if n == 1:
            zeros = np.zeros(trials, dtype=np.int64)
            return (
                np.zeros((trials, self.d), dtype=np.int64),
                zeros,
                np.ones(trials, dtype=np.int64),
            )
        f = rng.integers(0, n, size=trials, dtype=np.int64)
        g = sample_units(n, trials, rng)
        return progressions(f, g, n, self.d).T, f, g

    def describe(self) -> str:
        """Short human-readable label including the geometry."""
        return f"double-hashing(n_bins={self.n_bins}, d={self.d})"
