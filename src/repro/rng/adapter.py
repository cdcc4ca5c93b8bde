"""Adapter: run the vectorized engines on any pure-Python bit generator.

Every scheme and engine consumes the small numpy ``Generator`` surface
(``integers(low, high, size=…, dtype=…)``, ``random(size)``,
``exponential(scale, size)``).  :class:`GeneratorAdapter` implements exactly
that surface on top of a :class:`~repro.rng.base.BitGenerator64`, so the
*entire simulation stack* — not just hand-rolled loops — can be driven by
the paper's drand48 or by SplitMix64.  This is what makes the
PRNG ablation an apples-to-apples comparison: same engine code, different
raw bits.

It is, of course, orders of magnitude slower than numpy's native
generators (every word crosses the Python boundary); use it at ablation
scales.
"""

from __future__ import annotations

import numpy as np

from repro.rng.base import BitGenerator64

__all__ = ["GeneratorAdapter"]


def _size_to_count(size) -> tuple[int, tuple[int, ...] | None]:
    if size is None:
        return 1, None
    if isinstance(size, int):
        return size, (size,)
    total = 1
    for dim in size:
        total *= int(dim)
    return total, tuple(int(dim) for dim in size)


class GeneratorAdapter:
    """Duck-typed stand-in for ``numpy.random.Generator``.

    Parameters
    ----------
    bitgen:
        Any :class:`~repro.rng.base.BitGenerator64` (drand48, SplitMix64).

    Only the methods the repro engines use are implemented; anything else
    raises ``AttributeError`` naturally.
    """

    def __init__(self, bitgen: BitGenerator64) -> None:
        self._bitgen = bitgen

    def integers(
        self,
        low: int,
        high: int | None = None,
        size=None,
        dtype=np.int64,
        endpoint: bool = False,
    ):
        """Uniform integers, matching numpy's half-open convention."""
        if high is None:
            low, high = 0, low
        if endpoint:
            high = high + 1
        count, shape = _size_to_count(size)
        values = [self._bitgen.integers(int(low), int(high)) for _ in range(count)]
        if shape is None:
            return dtype(values[0]) if dtype is not int else values[0]
        return np.array(values, dtype=dtype).reshape(shape)

    def random(self, size=None):
        """Uniform floats on [0, 1)."""
        count, shape = _size_to_count(size)
        values = [self._bitgen.random() for _ in range(count)]
        if shape is None:
            return values[0]
        return np.array(values, dtype=np.float64).reshape(shape)

    def exponential(self, scale: float = 1.0, size=None):
        """Exponential variates via inverse CDF."""
        count, shape = _size_to_count(size)
        values = [
            -scale * np.log(1.0 - self._bitgen.random()) for _ in range(count)
        ]
        if shape is None:
            return values[0]
        return np.array(values, dtype=np.float64).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher–Yates permutation of range(n)."""
        out = np.arange(int(n), dtype=np.int64)
        for i in range(len(out) - 1, 0, -1):
            j = self._bitgen.integers(0, i + 1)
            out[i], out[j] = out[j], out[i]
        return out
