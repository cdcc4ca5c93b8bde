"""Primality testing and prime search.

Uses deterministic Miller–Rabin: for inputs below 3.3 * 10^24 the witness set
``{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}`` is known to be exact
(Sorenson & Webster 2015), which comfortably covers every table size a
simulation here will use.  For larger inputs the same witnesses make the test
probabilistic with error below 4^-12 per witness, which we accept (and
document) rather than silently failing.
"""

from __future__ import annotations

__all__ = ["is_prime", "next_prime"]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """Return True if ``a`` witnesses that ``n`` is composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test, deterministic for ``n < 3.3e24``.

    Examples
    --------
    >>> is_prime(2**31 - 1)
    True
    >>> is_prime(2**14)
    False
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        if _miller_rabin_witness(n, a, d, r):
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than ``n``.

    >>> next_prime(2**14)
    16411
    """
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate
