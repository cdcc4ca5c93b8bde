"""Concrete keyed hash families.

The balls-and-bins engines draw fresh randomness per ball, but the hash-table
structures in :mod:`repro.extensions` (Bloom filters, cuckoo tables, open
addressing) hash *keys*: the same key must always map to the same choices.
These families provide that, each with the standard universality guarantee:

- :class:`UniversalModPrimeHash` — Carter–Wegman ``((a·x + b) mod p) mod n``,
  2-universal (Carter–Wegman, JCSS 1979);
- :class:`PairwiseAffineHash` — the same degree-1 construction over the
  Mersenne prime ``2^61 - 1``, exactly pairwise independent with a
  division-free reduction — the minimal guarantee the paper's closing
  remark identifies as sufficient for double-hashing equivalence;
- :class:`MultiplyShiftHash` — Dietzfelbinger's multiply-shift for
  power-of-two ranges, 2-universal (up to a factor 2; Dietzfelbinger et
  al., J. Algorithms 1997);
- :class:`TabulationHash` — Patrascu–Thorup simple tabulation
  (JACM 2012), 3-independent and "behaves like full randomness" for many
  applications; the balanced-allocation follow-ups (arXiv:1804.09684,
  arXiv:1407.6846) prove d-choice max-load guarantees for exactly this
  family.

All families hash 64-bit integer keys and are vectorized over numpy arrays;
:class:`TabulationHash` and :class:`PairwiseAffineHash` delegate their batch
paths to the kernels in :mod:`repro.kernels.hash_schemes` (numpy gather /
Mersenne limb arithmetic) and expose
:meth:`TabulationHash.scalar` / :meth:`PairwiseAffineHash.scalar`
pure-Python oracles the bit-identity suites check the kernels against.
Construction draws the family's random parameters from ``rng`` (``None``
draws fresh OS entropy via :func:`repro.rng.default_generator`, so pass a
seeded generator for reproducible tables).  Every family exposes a stable
:meth:`fingerprint` over its drawn parameters; two instances with equal
fingerprints hash identically, which the service layer
(:mod:`repro.service`) uses to check shard-merge compatibility.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ConfigurationError
from repro.numtheory import next_prime
from repro.rng import default_generator

__all__ = [
    "MultiplyShiftHash",
    "PairwiseAffineHash",
    "TabulationHash",
    "UniversalModPrimeHash",
]

_U64 = np.uint64


def _kernels():
    """The hash-scheme kernel module, imported lazily (import-cycle free)."""
    from repro.kernels import hash_schemes

    return hash_schemes


def _digest(*parts: object) -> str:
    """Short stable digest of a family's drawn parameters."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


class UniversalModPrimeHash:
    """Carter–Wegman universal hashing: ``((a·x + b) mod p) mod n``.

    2-universal over keys in ``[0, 2^key_bits)`` (Carter–Wegman, JCSS
    1979): for distinct keys the collision probability is at most
    ``1/n``.  The batch path runs in exact uint64 limb arithmetic when
    ``p < 2^40`` (the default 32-bit key space) and falls back to
    Python-int arithmetic for wider primes.

    Parameters
    ----------
    n:
        Output range ``[0, n)``.
    rng:
        Used to draw ``a`` (nonzero) and ``b`` uniformly mod ``p``.
    key_bits:
        Maximum key width; ``p`` is chosen as the first prime above
        ``2^key_bits`` so every key is a distinct residue.
    """

    def __init__(
        self, n: int, rng: np.random.Generator | None = None, *, key_bits: int = 32
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"range must be positive, got {n}")
        rng = default_generator(rng)
        self.n = int(n)
        self.p = next_prime(1 << key_bits)
        self.a = int(rng.integers(1, self.p))
        self.b = int(rng.integers(0, self.p))

    def fingerprint(self) -> str:
        """Stable digest of ``(n, p, a, b)``."""
        return _digest("universal", self.n, self.p, self.a, self.b)

    def scalar(self, key: int) -> int:
        """Pure-Python-int oracle; the batch path must match it exactly."""
        return ((self.a * int(key) + self.b) % self.p) % self.n

    def __call__(self, keys: np.ndarray | int) -> np.ndarray | int:
        """Hash one key (Python int in, int out) or a batch (array in/out)."""
        if np.isscalar(keys):
            return self.scalar(keys)
        keys = np.asarray(keys, dtype=np.int64)
        if self.p >= 1 << 40:
            # Wide primes would overflow the uint64 limb split below;
            # go through Python ints per element (exact, slow).
            out = (self.a * keys.astype(object) + self.b) % self.p % self.n
            return out.astype(np.int64)
        # Exact uint64 path: reduce keys mod p, then split the residue at
        # 16 bits so a·x_hi < p^2 / 2^16 < 2^64 never wraps.
        p = _U64(self.p)
        x = keys.view(_U64) % p
        hi = (_U64(self.a) * (x >> _U64(16))) % p
        lo = _U64(self.a) * (x & _U64(0xFFFF))
        out = ((hi << _U64(16)) + lo + _U64(self.b)) % p % _U64(self.n)
        return out.astype(np.int64)


class PairwiseAffineHash:
    """Pairwise-independent hashing over the Mersenne prime ``2^61 - 1``.

    The degree-1 Carter–Wegman family ``((a·x + b) mod p) mod n`` with
    ``p = 2^61 - 1``: **exactly pairwise independent** on keys in
    ``[0, p)`` (Carter–Wegman, JCSS 1979) — the weakest guarantee in the
    zoo, and precisely the "pairwise uniformity" the paper's concluding
    remark singles out as sufficient for double hashing to match fully
    random d-choice allocation.  Certifying this family against the
    fully-random baseline therefore probes the paper's sufficiency claim
    directly.

    Compared to :class:`UniversalModPrimeHash` the Mersenne modulus
    buys a division-free reduction (fold the top 3 bits back with
    shift + mask), a 61-bit key space, and a kernel-grade batch path
    (:func:`repro.kernels.hash_schemes.pairwise_affine_u64`, exact
    uint64 limb arithmetic).  Keys at or above
    ``p`` are reduced mod ``p`` first.

    Parameters
    ----------
    n:
        Output range ``[0, n)``; a power of two is reduced by mask,
        anything else by modulo.
    rng:
        Used to draw ``a`` (nonzero) and ``b`` uniformly mod ``p``.
    """

    #: The family's modulus, shared with the kernel tier.
    P = (1 << 61) - 1

    def __init__(self, n: int, rng: np.random.Generator | None = None) -> None:
        if n < 1:
            raise ConfigurationError(f"range must be positive, got {n}")
        rng = default_generator(rng)
        self.n = int(n)
        self.a = int(rng.integers(1, self.P))
        self.b = int(rng.integers(0, self.P))
        self._pow2 = (self.n & (self.n - 1)) == 0

    def fingerprint(self) -> str:
        """Stable digest of ``(n, a, b)``."""
        return _digest("pairwise", self.n, self.a, self.b)

    def scalar(self, key: int) -> int:
        """Pure-Python-int oracle; the kernel tiers must match it exactly."""
        h = _kernels().pairwise_affine_scalar(int(key), self.a, self.b)
        return h & (self.n - 1) if self._pow2 else h % self.n

    def __call__(self, keys: np.ndarray | int) -> np.ndarray | int:
        """Hash one key (Python int in, int out) or a batch (array in/out)."""
        if np.isscalar(keys):
            return self.scalar(keys)
        h = _kernels().pairwise_affine_u64(np.asarray(keys), self.a, self.b)
        if self._pow2:
            return (h & _U64(self.n - 1)).astype(np.int64)
        return (h % _U64(self.n)).astype(np.int64)


class MultiplyShiftHash:
    """Dietzfelbinger multiply-shift: ``(a * x) >> (64 - log2(n))``.

    2-universal up to a factor 2 (Dietzfelbinger et al., *A Reliable
    Randomized Algorithm for the Closest-Pair Problem*, J. Algorithms
    1997).  Requires ``n`` to be a power of two.  ``a`` is a random odd
    64-bit multiplier.  This is the family deployed hardware
    implementations favor (single multiply, no division), matching the
    paper's motivation that double hashing suits hardware.
    """

    def __init__(self, n: int, rng: np.random.Generator | None = None) -> None:
        if n < 1 or (n & (n - 1)) != 0:
            raise ConfigurationError(
                f"multiply-shift needs a power-of-two range, got {n}"
            )
        rng = default_generator(rng)
        self.n = int(n)
        self.shift = 64 - (n.bit_length() - 1) if n > 1 else 64
        self.a = int(rng.integers(0, 1 << 63, dtype=np.int64)) * 2 + 1

    def fingerprint(self) -> str:
        """Stable digest of ``(n, a)``."""
        return _digest("multiply-shift", self.n, self.a)

    def __call__(self, keys: np.ndarray | int) -> np.ndarray | int:
        """Hash one key (Python int in, int out) or a batch (array in/out)."""
        if self.n == 1:
            return 0 if np.isscalar(keys) else np.zeros(len(keys), np.int64)
        if np.isscalar(keys):
            return ((self.a * int(keys)) & ((1 << 64) - 1)) >> self.shift
        keys = np.asarray(keys)
        if keys.dtype == np.int64 or keys.dtype == _U64:
            # Two's-complement bits are what get multiplied mod 2^64, so
            # a reinterpreting view is value-identical to the astype copy.
            keys = keys.view(_U64)
        else:
            keys = keys.astype(_U64)
        with np.errstate(over="ignore"):
            prod = keys * _U64(self.a & ((1 << 64) - 1))
        prod >>= _U64(self.shift)
        return prod.view(np.int64)


class TabulationHash:
    """Simple tabulation hashing over 64-bit keys split into 8-bit chars.

    Eight lookup tables of 256 random words are XOR-combined
    (Patrascu–Thorup, *The Power of Simple Tabulation Hashing*, JACM
    2012): 3-independent, not 4-independent, yet strong enough that the
    follow-up papers prove d-choice balanced-allocation max-load bounds
    for it (*Power of d Choices with Simple Tabulation*,
    arXiv:1804.09684; *The Power of Two Choices with Simple Tabulation*,
    arXiv:1407.6846).  The result is reduced to ``[0, n)``: for
    power-of-two ``n`` the reduction is a mask (preserving full
    independence properties); otherwise a modulo.

    The batch path runs through the kernel
    (:func:`repro.kernels.hash_schemes.tabulation_hash_u64`): the eight
    tables flatten into one contiguous 16 KiB gather array consumed by
    blocked ``np.take``; :meth:`scalar` is the pure-Python oracle the
    kernel is certified bit-identical against.
    """

    CHARS = 8
    TABLE_SIZE = 256

    def __init__(self, n: int, rng: np.random.Generator | None = None) -> None:
        if n < 1:
            raise ConfigurationError(f"range must be positive, got {n}")
        rng = default_generator(rng)
        self.n = int(n)
        self.tables = rng.integers(
            0, 1 << 63, size=(self.CHARS, self.TABLE_SIZE), dtype=np.int64
        ).astype(_U64) << _U64(1)
        self.tables |= rng.integers(
            0, 2, size=(self.CHARS, self.TABLE_SIZE), dtype=np.int64
        ).astype(_U64)
        self._pow2 = (self.n & (self.n - 1)) == 0
        self._flat = _kernels().flatten_tables(self.tables)

    def fingerprint(self) -> str:
        """Stable digest of ``(n, tables)``."""
        return _digest("tabulation", self.n, self.tables)

    def scalar(self, key: int) -> int:
        """Pure-Python-int oracle; the kernel tiers must match it exactly."""
        h = _kernels().tabulation_hash_scalar(int(key), self.tables)
        return h & (self.n - 1) if self._pow2 else h % self.n

    def __call__(self, keys: np.ndarray | int) -> np.ndarray | int:
        """Hash one key (Python int in, int out) or a batch (array in/out)."""
        if np.isscalar(keys):
            return self.scalar(keys)
        acc = _kernels().tabulation_hash_u64(np.asarray(keys), self._flat)
        if self._pow2:
            return (acc & _U64(self.n - 1)).astype(np.int64)
        return (acc % _U64(self.n)).astype(np.int64)
