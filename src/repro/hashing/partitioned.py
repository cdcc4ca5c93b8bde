"""Partitioned (d-left) choice schemes for Vöcking's scheme (paper Table 7).

In Vöcking's scheme the ``n`` bins are split into ``d`` subtables of size
``n/d`` laid out left to right, and each ball gets exactly one candidate in
each subtable.  These schemes produce choices whose ``k``-th column lies in
subtable ``k``; the d-left *engine* (ties to the left) lives in
:mod:`repro.core.dleft` — the schemes here only control where candidates
fall, preserving the scheme/engine separation.

Double-hashing variant: a ball draws ``f`` uniform on ``[0, n/d)`` and a
stride ``g`` that is a unit mod ``n/d``; its candidate in subtable ``k`` is
``(f + k·g) mod (n/d)`` offset into that subtable.  This is the natural
translation of the paper's ``h(j,k) = f(j) + k·g(j)`` to the partitioned
layout: two hash values drive all ``d`` subtable positions, built with
the same stride recurrence as unpartitioned double hashing.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchemeError
from repro.hashing.base import ChoiceScheme
from repro.hashing.double_hashing import progressions
from repro.numtheory import sample_units

__all__ = ["PartitionedFullyRandom", "PartitionedDoubleHashing"]


class _PartitionedScheme(ChoiceScheme):
    """Shared geometry handling for the partitioned schemes."""

    def __init__(self, n_bins: int, d: int) -> None:
        super().__init__(n_bins, d)
        if n_bins % d != 0:
            raise SchemeError(
                f"d-left layout needs d | n_bins; got n_bins={n_bins}, d={d}"
            )
        self.subtable_size = n_bins // d
        # Column k of every row is offset into subtable k.
        self._offsets = (
            np.arange(d, dtype=np.int64) * self.subtable_size
        )

    @property
    def distinct(self) -> bool:
        """True: candidates live in disjoint subtables."""
        return True


class PartitionedFullyRandom(_PartitionedScheme):
    """One independent uniform choice per subtable (Vöcking baseline)."""

    def batch(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        """One independent uniform local slot per subtable, offset-shifted."""
        local = rng.integers(
            0, self.subtable_size, size=(trials, self.d), dtype=np.int64
        )
        return local + self._offsets

    def describe(self) -> str:
        """Short human-readable label including the subtable geometry."""
        return (
            f"d-left fully-random(n_bins={self.n_bins}, d={self.d}, "
            f"subtable={self.subtable_size})"
        )


class PartitionedDoubleHashing(_PartitionedScheme):
    """Double hashing across subtables: ``(f + k·g) mod (n/d)`` in subtable ``k``.

    Requires ``n/d ≥ 2`` so a stride exists (for ``n/d == 1`` every choice
    is forced anyway).
    """

    def batch(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        """The transposed *view* of :meth:`batch_planar` (same draws)."""
        return self.batch_planar(trials, rng).T

    def batch_planar(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Planar ``(d, trials)`` stride progressions with a shared ``(f, g)``.

        Draws ``f`` then ``g`` (nothing when ``n/d == 1``); plane ``k``
        is :func:`~repro.hashing.double_hashing.progressions` mod ``n/d``
        plus subtable ``k``'s offset.
        """
        size = self.subtable_size
        offsets = self._offsets[:, None]
        if size == 1:
            return np.broadcast_to(offsets, (self.d, trials)).copy()
        f = rng.integers(0, size, size=trials, dtype=np.int64)
        planes = progressions(f, sample_units(size, trials, rng), size, self.d)
        planes += offsets
        return planes

    def describe(self) -> str:
        """Short human-readable label including the subtable geometry."""
        return (
            f"d-left double-hashing(n_bins={self.n_bins}, d={self.d}, "
            f"subtable={self.subtable_size})"
        )
