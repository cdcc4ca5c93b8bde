"""Vectorized hash-family kernels: tabulation gather + pairwise affine.

The hash-family zoo (:mod:`repro.hashing.hash_functions`) historically
evaluated simple tabulation with one numpy fancy-index per character and
Carter–Wegman families through per-element Python-int arithmetic — fine
for correctness, far too slow for the n = 2^24 equivalence sweeps the
certification tiers run.  This module is the kernel-grade hot path those
families now delegate to, mirroring the placement/supermarket/peeling
split: one numpy kernel per family plus a pure-Python scalar oracle that
the bit-identity suites check the kernel against.

Two primitives ship:

``tabulation_hash_u64``
    Simple tabulation over 64-bit keys split into eight 8-bit
    characters (Patrascu–Thorup, *The Power of Simple Tabulation
    Hashing*, JACM 2012).  The eight ``(256,)`` lookup tables are
    flattened into one contiguous ``(2048,)`` uint64 array so every
    character becomes a single flat ``np.take`` gather at offset
    ``c * 256`` — eight gathers XOR-folded into the accumulator, block
    chunked so key block, byte scratch, and accumulator stay cache
    resident.

``pairwise_affine_u64``
    The degree-1 Carter–Wegman family ``(a·x + b) mod p`` over the
    Mersenne prime ``p = 2^61 - 1`` — exactly pairwise independent on
    keys in ``[0, p)`` (Carter–Wegman, JCSS 1979), the minimal
    guarantee the paper's closing remark singles out as sufficient for
    double-hashing equivalence.  The Mersenne modulus makes the
    reduction branch-free (fold the top bits back with shift + mask, no
    division); the 64×64-bit product is evaluated exactly in uint64 via
    32-bit limb splitting and ``2^64 ≡ 8 (mod p)``.

Both primitives return the *unreduced* hash in the family's native
range; reducing to ``[0, n)`` (mask for powers of two, modulo
otherwise) stays in the calling family so the independence bookkeeping
lives in one place.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "MERSENNE_P",
    "TAB_CHARS",
    "TAB_TABLE_SIZE",
    "flatten_tables",
    "pairwise_affine_scalar",
    "pairwise_affine_u64",
    "tabulation_hash_scalar",
    "tabulation_hash_u64",
]

_U64 = np.uint64

#: The Mersenne prime ``2^61 - 1`` used by the pairwise-affine family.
MERSENNE_P = (1 << 61) - 1

#: Characters per 64-bit key and entries per character table.
TAB_CHARS = 8
TAB_TABLE_SIZE = 256

#: Keys hashed per chunk.  One chunk touches ``3 × 8 bytes × block``
#: of scratch (keys, byte indices, accumulator) — 768 KiB at 2^15,
#: L2-resident next to the 16 KiB flat table.
_BLOCK = 1 << 15

_P61 = _U64(MERSENNE_P)
_SH61 = _U64(61)
_SH32 = _U64(32)
_SH29 = _U64(29)
_MASK32 = _U64((1 << 32) - 1)
_MASK29 = _U64((1 << 29) - 1)


def _keys_u64(keys: np.ndarray) -> np.ndarray:
    """Normalize a key batch to a 1-D uint64 view (no copy when possible)."""
    arr = np.asarray(keys)
    if arr.ndim != 1:
        raise ConfigurationError(
            f"keys must be a 1-D array, got shape {arr.shape}"
        )
    if arr.dtype == np.int64:
        return arr.view(_U64)
    if arr.dtype != _U64:
        return arr.astype(_U64)
    return arr


def flatten_tables(tables: np.ndarray) -> np.ndarray:
    """Flatten ``(8, 256)`` tabulation tables into the gather layout.

    Character ``c``'s table occupies ``flat[c * 256 : (c + 1) * 256]``,
    so the per-character gather index is ``(c << 8) | byte`` into one
    contiguous 16 KiB array.
    """
    tables = np.asarray(tables, dtype=_U64)
    if tables.shape != (TAB_CHARS, TAB_TABLE_SIZE):
        raise ConfigurationError(
            f"expected ({TAB_CHARS}, {TAB_TABLE_SIZE}) tables, "
            f"got shape {tables.shape}"
        )
    return np.ascontiguousarray(tables.reshape(-1))


# --------------------------------------------------------------------------
# Simple tabulation
# --------------------------------------------------------------------------


def _tabulation_numpy(keys: np.ndarray, flat: np.ndarray,
                      out: np.ndarray) -> None:
    """Numpy kernel: eight flat gathers XOR-folded, block chunked."""
    m = keys.size
    idx = np.empty(min(m, _BLOCK), dtype=np.int64)
    shifted = np.empty(min(m, _BLOCK), dtype=_U64)
    for start in range(0, m, _BLOCK):
        stop = min(start + _BLOCK, m)
        w = stop - start
        np.copyto(shifted[:w], keys[start:stop])
        acc = out[start:stop]
        acc.fill(0)
        for c in range(TAB_CHARS):
            idx[:w] = (shifted[:w] & _U64(0xFF)).view(np.int64)
            idx[:w] += c << 8
            acc ^= flat.take(idx[:w])
            shifted[:w] >>= _U64(8)


def tabulation_hash_u64(
    keys: np.ndarray,
    flat_tables: np.ndarray,
) -> np.ndarray:
    """Hash a key batch through simple tabulation; full 64-bit output.

    Parameters
    ----------
    keys:
        1-D integer array (int64 keys are reinterpreted as uint64, so
        the full 64-bit pattern is hashed).
    flat_tables:
        ``(2048,)`` uint64 gather table from :func:`flatten_tables`.
    """
    flat = np.asarray(flat_tables, dtype=_U64)
    if flat.shape != (TAB_CHARS * TAB_TABLE_SIZE,):
        raise ConfigurationError(
            f"expected a ({TAB_CHARS * TAB_TABLE_SIZE},) flat table, "
            f"got shape {flat.shape}"
        )
    arr = _keys_u64(keys)
    out = np.empty(arr.size, dtype=_U64)
    _tabulation_numpy(arr, flat, out)
    return out


def tabulation_hash_scalar(key: int, tables: np.ndarray) -> int:
    """Pure-Python scalar oracle for :func:`tabulation_hash_u64`.

    Walks the ``(8, 256)`` tables with Python ints only; the vectorized
    kernel must match it bit for bit on every key (the bit-identity
    suites assert exactly this).
    """
    x = int(key) & ((1 << 64) - 1)
    acc = 0
    for c in range(TAB_CHARS):
        acc ^= int(tables[c][(x >> (8 * c)) & 0xFF])
    return acc


# --------------------------------------------------------------------------
# Pairwise affine over the Mersenne prime 2^61 - 1
# --------------------------------------------------------------------------


def _fold61(x: np.ndarray) -> np.ndarray:
    """One Mersenne fold: ``x mod 2^61-1`` partially, result < 2^61 + 8."""
    return (x >> _SH61) + (x & _P61)


def _mod_p61(x: np.ndarray) -> np.ndarray:
    """Full reduction of uint64 values to ``[0, p)``, branch-free."""
    r = _fold61(_fold61(x))
    return np.where(r >= _P61, r - _P61, r)


def _pairwise_numpy(keys: np.ndarray, a: int, b: int,
                    out: np.ndarray) -> None:
    """Numpy kernel: exact ``(a·x + b) mod (2^61-1)`` in uint64 limbs.

    Keys are first reduced mod p, then the 61×61-bit product is split
    into 32-bit limbs; the cross terms re-enter via ``2^64 ≡ 8`` and
    ``2^32 = 2^61 / 2^29``, so every intermediate stays below 2^63 and
    the arithmetic is exact (no wraparound).
    """
    a_u = _U64(a)
    a_hi = a_u >> _SH32
    a_lo = a_u & _MASK32
    x = _mod_p61(keys)
    x_hi = x >> _SH32
    x_lo = x & _MASK32
    # a_hi·x_hi·2^64 ≡ 8·a_hi·x_hi, already < p.
    term1 = (a_hi * x_hi) << _U64(3)
    # (a_hi·x_lo + a_lo·x_hi)·2^32: split at 29 bits so the 2^61 part
    # folds to 1 and the rest stays below 2^61.
    mid = a_hi * x_lo + a_lo * x_hi
    term2 = (mid >> _SH29) + ((mid & _MASK29) << _SH32)
    # a_lo·x_lo < 2^64: one fold brings it under 2^61 + 8.
    term3 = _fold61(a_lo * x_lo)
    total = term1 + term2 + term3 + _U64(b)
    np.copyto(out, _mod_p61(total))


def pairwise_affine_u64(
    keys: np.ndarray,
    a: int,
    b: int,
) -> np.ndarray:
    """Hash a key batch through ``(a·x + b) mod (2^61 - 1)``.

    Returns the unreduced hash in ``[0, p)``; keys at or above ``p``
    are reduced mod ``p`` first (the family is exactly pairwise
    independent on ``[0, p)``).
    """
    if not 1 <= a < MERSENNE_P:
        raise ConfigurationError(f"need 1 <= a < 2^61-1, got {a}")
    if not 0 <= b < MERSENNE_P:
        raise ConfigurationError(f"need 0 <= b < 2^61-1, got {b}")
    arr = _keys_u64(keys)
    out = np.empty(arr.size, dtype=_U64)
    _pairwise_numpy(arr, a, b, out)
    return out


def pairwise_affine_scalar(key: int, a: int, b: int) -> int:
    """Pure-Python scalar oracle for :func:`pairwise_affine_u64`."""
    x = (int(key) & ((1 << 64) - 1)) % MERSENNE_P
    return (a * x + b) % MERSENNE_P
