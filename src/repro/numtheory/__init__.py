"""Number-theoretic utilities for double hashing table geometry.

Double hashing needs strides ``g`` that are units mod the table size ``n``
(i.e. ``gcd(g, n) == 1``) so that the probe/choice sequence
``f + k·g mod n`` visits distinct bins.  The paper works with ``n`` prime
(every nonzero stride is a unit) or ``n`` a power of two (odd strides are
units).  This package provides primality testing, prime search, Euler's
totient, and uniform sampling of units mod ``n`` for arbitrary ``n``.
"""

from repro.numtheory.coprime import (
    count_units,
    sample_units,
    units_mod,
)
from repro.numtheory.primes import (
    is_prime,
    next_prime,
)
from repro.numtheory.totient import euler_phi, factorize

__all__ = [
    "count_units",
    "euler_phi",
    "factorize",
    "is_prime",
    "next_prime",
    "sample_units",
    "units_mod",
]
