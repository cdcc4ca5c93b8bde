"""Tests for Miller–Rabin primality and prime search."""

from __future__ import annotations

import pytest

from repro.numtheory import is_prime, next_prime


def _sieve(limit: int) -> list[bool]:
    flags = [True] * limit
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return flags


class TestIsPrime:
    def test_agrees_with_sieve_to_10000(self):
        flags = _sieve(10000)
        for n in range(10000):
            assert is_prime(n) == flags[n], f"disagreement at {n}"

    @pytest.mark.parametrize(
        "p",
        [2**13 - 1, 2**17 - 1, 2**19 - 1, 2**31 - 1, 2**61 - 1, 16411, 65537],
    )
    def test_known_primes(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize(
        "n",
        [561, 1105, 1729, 2465, 2821, 6601, 8911,  # Carmichael numbers
         2**14, 2**16, 2**31, (2**31 - 1) * (2**13 - 1)],
    )
    def test_known_composites(self, n):
        assert not is_prime(n)

    def test_negative_and_small(self):
        assert not is_prime(-7)
        assert not is_prime(0)
        assert not is_prime(1)

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        assert not is_prime(p * q)
        assert is_prime(p) and is_prime(q)


class TestNextPrevPrime:
    def test_next_prime_examples(self):
        assert next_prime(2**14) == 16411
        assert next_prime(1) == 2
        assert next_prime(2) == 3
        assert next_prime(13) == 17

    def test_round_trip(self):
        for n in (100, 1000, 2**16, 2**20):
            p = next_prime(n)
            assert is_prime(p)
            assert not any(is_prime(k) for k in range(n + 1, p))

    def test_next_prime_strictly_greater(self):
        assert next_prime(17) == 19
