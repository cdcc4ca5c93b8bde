"""Uniform sampling of units mod ``n`` (the double-hashing stride set).

The fast paths exploit the two geometries the paper highlights:

- ``n`` prime: every ``g`` in ``[1, n)`` is a unit — sample directly;
- ``n`` a power of two: the units are exactly the odd residues — sample an
  odd number directly (this is the "random odd stride" of the paper);
- general ``n``: vectorized rejection sampling against ``gcd(g, n) == 1``
  (acceptance rate φ(n)/n, which is Ω(1/log log n), so a couple of rounds
  suffice).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.numtheory.primes import is_prime
from repro.numtheory.totient import euler_phi

__all__ = ["count_units", "units_mod", "sample_units"]


def count_units(n: int) -> int:
    """Number of valid strides mod ``n`` — Euler's totient φ(n)."""
    return euler_phi(n)


def units_mod(n: int) -> np.ndarray:
    """All units in ``[1, n)`` as a sorted array (small ``n`` only).

    Intended for tests and exact enumeration; for sampling use
    :func:`sample_units`.
    """
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    g = np.arange(1, n, dtype=np.int64)
    gcds = np.gcd(g, n)
    return g[gcds == 1]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# Small composite moduli get an enumerated unit table (one gcd sweep,
# cached): sampling becomes a single exact-uniform indexed draw instead of
# rejection rounds.  The cap bounds cache memory at a few hundred KiB.
_UNIT_TABLE_MAX = 4096


@lru_cache(maxsize=128)
def _unit_table(n: int) -> np.ndarray:
    table = units_mod(n)
    table.setflags(write=False)  # shared across callers; must stay frozen
    return table


def sample_units(
    n: int, size: int | tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Draw uniform random units mod ``n`` with shape ``size``.

    Parameters
    ----------
    n:
        Modulus (table size), at least 2.
    size:
        Output shape.
    rng:
        Source of randomness.

    Notes
    -----
    Prime and power-of-two moduli use closed-form direct sampling; small
    composite moduli (``n <= 4096``) draw one index into a cached unit
    table (exact uniform, one RNG call); larger composite moduli use
    rejection sampling, re-drawing only the rejected positions each round.
    """
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    if _is_power_of_two(n):
        if n == 2:
            return np.ones(size, dtype=np.int64)
        # Odd residues 1, 3, ..., n-1 are exactly the units mod 2^k.
        return 2 * rng.integers(0, n // 2, size=size, dtype=np.int64) + 1
    if is_prime(n):
        return rng.integers(1, n, size=size, dtype=np.int64)
    if n <= _UNIT_TABLE_MAX:
        table = _unit_table(n)
        return table[rng.integers(0, table.size, size=size)]
    out = rng.integers(1, n, size=size, dtype=np.int64)
    bad = np.gcd(out, n) != 1
    while bad.any():
        out[bad] = rng.integers(1, n, size=int(bad.sum()), dtype=np.int64)
        bad = np.gcd(out, n) != 1
    return out
