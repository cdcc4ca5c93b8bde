"""Keyed choice generation: from *keys* to double-hashing choice vectors.

The balls-and-bins engines draw fresh randomness per ball, but production
systems hash **keys**: the same key must always map to the same ``d``
candidate bins.  This is the paper's practical pitch — double hashing gives
multiple-choice placement from only *two* hash computations per key — and
the regime studied by the follow-ups (*More Analysis of Double Hashing for
Balanced Allocations*, arXiv:1503.00658; *Power of d Choices with Simple
Tabulation*, arXiv:1804.09684).  This module makes it a first-class API:

- :class:`KeyedChoices` — the interface: a batched, vectorized
  ``choices_planar(keys) -> (d, len(keys))`` map, deterministic per
  instance, with ``choices(keys)`` its row-major view;
- :class:`DoubleHashedKeyed` — choices ``(f(x) + j·g(x)) mod n`` from two
  hash values drawn from a concrete family (multiply-shift, tabulation,
  universal), with the stride forced to a unit so choices are distinct;
- :class:`IndependentKeyed` — ``d`` independent hash functions, the keyed
  stand-in for the paper's fully-random baseline (exactly the scheme the
  simple-tabulation follow-up analyzes);
- :class:`KeyedStreamScheme` — a :class:`~repro.hashing.base.ChoiceScheme`
  adapter that feeds a uniform random key stream through a keyed scheme,
  so every engine and placement kernel in the repo can run on realistic
  hash families (the generic kernel path consumes ``batch_planar``).

All keyed schemes hash 64-bit integer keys, are vectorized over numpy
arrays, and expose a stable :meth:`KeyedChoices.fingerprint` so sharded
state built from the *same* hash functions can be merged safely.
"""

from __future__ import annotations

import abc
import hashlib

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.base import ChoiceScheme
from repro.hashing.double_hashing import progressions
from repro.hashing.hash_functions import (
    MultiplyShiftHash,
    PairwiseAffineHash,
    TabulationHash,
    UniversalModPrimeHash,
)
from repro.numtheory import is_prime
from repro.rng import default_generator

__all__ = [
    "HASH_FAMILIES",
    "DoubleHashedKeyed",
    "IndependentKeyed",
    "KeyedChoices",
    "KeyedStreamScheme",
    "make_hash_family",
]

#: Concrete keyed hash families by short name.  ``multiply-shift`` needs a
#: power-of-two range; the other three accept any positive range.
HASH_FAMILIES = {
    "multiply-shift": MultiplyShiftHash,
    "pairwise": PairwiseAffineHash,
    "tabulation": TabulationHash,
    "universal": UniversalModPrimeHash,
}


def make_hash_family(name: str, n: int, rng: np.random.Generator | None = None):
    """Instantiate a hash family by short name with range ``[0, n)``."""
    try:
        cls = HASH_FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown hash family {name!r}; known: {', '.join(sorted(HASH_FAMILIES))}"
        ) from None
    return cls(n, default_generator(rng))


#: Largest key batch: the keymap kernels index a batch with int32.
_MAX_BATCH = np.iinfo(np.int32).max


def _as_key_array(keys) -> np.ndarray:
    """Normalize a key batch to a contiguous 1-D int64 array.

    Integer dtypes convert (no copy when already contiguous int64).  Any
    other dtype — floating, complex, bool, object — raises instead of
    being silently truncated onto some integer key; an empty batch of any
    dtype is accepted, since ``[]`` becomes float64.  Batches are limited
    to ``2^31 - 1`` entries.  The IBLT normalizes its value batches here
    too, so the messages do not say "keys".
    """
    arr = np.asarray(keys)
    if arr.ndim != 1:
        raise ConfigurationError(
            f"expected a 1-D array, got shape {arr.shape}"
        )
    if arr.dtype != np.int64:
        if arr.size and arr.dtype.kind not in "iu":
            raise ConfigurationError(
                f"expected integers, got dtype {arr.dtype}"
            )
        arr = arr.astype(np.int64)
    if arr.size > _MAX_BATCH:
        raise ConfigurationError("batches are limited to 2^31 - 1 entries")
    return np.ascontiguousarray(arr)


class KeyedChoices(abc.ABC):
    """Deterministic map from keys to ``d`` candidate bins.

    Unlike :class:`~repro.hashing.base.ChoiceScheme`, which consumes an
    ``rng`` per batch, a keyed scheme is a *function*: its randomness was
    drawn once at construction (the hash-family parameters) and the same
    key always yields the same choice row.

    Parameters
    ----------
    n_bins:
        Number of bins (table size), at least 1.
    d:
        Number of choices per key, at least 1.
    """

    def __init__(self, n_bins: int, d: int) -> None:
        if n_bins < 1:
            raise ConfigurationError(f"n_bins must be positive, got {n_bins}")
        if d < 1:
            raise ConfigurationError(f"d must be positive, got {d}")
        if d > n_bins:
            raise ConfigurationError(
                f"cannot make {d} distinct choices from {n_bins} bins"
            )
        self.n_bins = int(n_bins)
        self.d = int(d)

    @abc.abstractmethod
    def choices_planar(self, keys) -> np.ndarray:
        """Return a ``(d, len(keys))`` int64 array of bin indices.

        Plane ``j`` holds the ``j``-th choice of every key — the layout
        the store and the placement kernels consume, so each gather
        walks one contiguous plane.  Equal keys get equal columns
        (within and across calls on the same instance).
        """

    def choices(self, keys) -> np.ndarray:
        """Row-major ``(len(keys), d)`` choices: row ``i`` holds the
        candidate bins of ``keys[i]``.

        The transposed *view* of :meth:`choices_planar`.
        """
        return self.choices_planar(keys).T

    @abc.abstractmethod
    def fingerprint(self) -> str:
        """Stable digest of the underlying hash-function parameters.

        Two instances with equal fingerprints produce identical choices
        for every key; the service layer requires equal fingerprints
        before merging shards.
        """

    @property
    def distinct(self) -> bool:
        """Whether the ``d`` choices of one key are guaranteed distinct."""
        return False

    def describe(self) -> str:
        """Human-readable one-line description used in reports."""
        return f"{type(self).__name__}(n_bins={self.n_bins}, d={self.d})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


class DoubleHashedKeyed(KeyedChoices):
    """Keyed double hashing: choices ``(f(x) + j·g(x)) mod n``.

    Two hash computations per key, ``d`` choices — the paper's pitch made
    keyed.  ``f`` hashes into ``[0, n)``; ``g`` is mapped onto the units
    mod ``n`` so the ``d`` choices of a key are always distinct:

    - power-of-two ``n``: ``g`` hashes into ``[0, n/2)`` and the stride is
      ``2·g + 1`` (uniform over the odd residues, all units);
    - prime ``n``: ``g`` hashes into ``[0, n-1)`` and the stride is
      ``g + 1`` (uniform over the nonzero residues, all units).

    Other moduli would need keyed rejection sampling of strides and are
    rejected up front; the paper itself works with prime or power-of-two
    table sizes for exactly this reason.

    Parameters
    ----------
    n_bins, d:
        Table geometry; ``n_bins`` must be a power of two or a prime.
    family:
        Hash-family name for both ``f`` and ``g`` (see
        :data:`HASH_FAMILIES`).  ``multiply-shift`` (the default) requires
        power-of-two ``n_bins``.
    rng:
        Drives the family-parameter draws (``None``: fresh OS entropy).
    """

    def __init__(
        self,
        n_bins: int,
        d: int,
        *,
        family: str = "multiply-shift",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(n_bins, d)
        rng = default_generator(rng)
        n = self.n_bins
        self.family = family
        self._pow2 = n & (n - 1) == 0
        if self._pow2:
            stride_range = max(n >> 1, 1)
        elif is_prime(n):
            stride_range = n - 1
        else:
            raise ConfigurationError(
                f"keyed double hashing needs a power-of-two or prime table "
                f"size so strides are units; got n_bins={n}"
            )
        self._f = make_hash_family(family, n, rng)
        self._g = make_hash_family(family, stride_range, rng)

    @property
    def distinct(self) -> bool:
        """True: the stride is a unit, so the ``d`` probes never collide."""
        return True

    def choices_planar(self, keys) -> np.ndarray:
        """Planar ``(f + j·stride) mod n`` via the stride recurrence.

        Plane ``j`` is plane ``j-1`` plus the stride, wrapped — a mask
        for power-of-two ``n``, the branchless wrap of
        :func:`~repro.hashing.double_hashing.progressions` for prime
        ``n`` (``f`` lies in ``[0, n)`` and the stride in ``[1, n)``).
        """
        keys = _as_key_array(keys)
        n = self.n_bins
        if n == 1:
            return np.zeros((self.d, keys.size), dtype=np.int64)
        f = np.asarray(self._f(keys), dtype=np.int64)
        g = np.asarray(self._g(keys), dtype=np.int64)
        if not self._pow2:
            return progressions(f, g + 1, n, self.d)
        stride = (g << 1) | 1
        out = np.empty((self.d, keys.size), dtype=np.int64)
        out[0] = f
        for j in range(1, self.d):
            plane = out[j]
            np.add(out[j - 1], stride, out=plane)
            plane &= n - 1
        return out

    def fingerprint(self) -> str:
        """Digest of ``d`` plus both drawn hash functions' fingerprints."""
        h = hashlib.blake2b(digest_size=8)
        h.update(
            f"double:{self.d}:{self._f.fingerprint()}:{self._g.fingerprint()}".encode()
        )
        return h.hexdigest()

    def describe(self) -> str:
        """Short human-readable label including family and geometry."""
        return (
            f"keyed-double({self.family}, n_bins={self.n_bins}, d={self.d})"
        )


class IndependentKeyed(KeyedChoices):
    """``d`` independent keyed hash functions — the fully-random stand-in.

    One hash computation per choice (``d`` per key), the cost the paper
    contrasts double hashing against.  Choices within a row may collide
    (hash functions are independent), matching the with-replacement
    baseline; the collision probability per pair is ``1/n``.

    Parameters
    ----------
    n_bins, d:
        Table geometry (``multiply-shift`` requires power-of-two ``n_bins``).
    family:
        Hash-family name shared by the ``d`` functions.
    rng:
        Drives the family-parameter draws (``None``: fresh OS entropy).
    """

    def __init__(
        self,
        n_bins: int,
        d: int,
        *,
        family: str = "multiply-shift",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(n_bins, d)
        rng = default_generator(rng)
        self.family = family
        self._hashes = [make_hash_family(family, self.n_bins, rng) for _ in range(d)]

    def choices_planar(self, keys) -> np.ndarray:
        """Planar choices: plane ``j`` is hash ``j`` of every key."""
        keys = _as_key_array(keys)
        out = np.empty((self.d, keys.size), dtype=np.int64)
        if self.n_bins == 1:
            out.fill(0)
            return out
        for j, h in enumerate(self._hashes):
            out[j] = h(keys)
        return out

    def fingerprint(self) -> str:
        """Digest of the ``d`` drawn hash functions' fingerprints."""
        h = hashlib.blake2b(digest_size=8)
        h.update(
            ("independent:" + ":".join(f.fingerprint() for f in self._hashes)).encode()
        )
        return h.hexdigest()

    def describe(self) -> str:
        """Short human-readable label including family and geometry."""
        return (
            f"keyed-independent({self.family}, n_bins={self.n_bins}, d={self.d})"
        )


class KeyedStreamScheme(ChoiceScheme):
    """Adapter: a keyed scheme driven by a uniform random key stream.

    Implements the engine-facing :class:`~repro.hashing.base.ChoiceScheme`
    interface by drawing one fresh uniform 63-bit key per ball and hashing
    it through ``keyed`` — so ``simulate_batch``, ``simulate_churn``, the
    supermarket simulator, and the placement kernels (via the generic
    ``batch_planar`` generation path) all run unchanged on realistic hash
    families.  This is the bridge the hash-family-zoo experiments use.

    Parameters
    ----------
    keyed:
        The keyed scheme to adapt.
    key_bits:
        Width of the random keys drawn per ball (defaults to 63 so keys
        stay non-negative int64).
    """

    def __init__(self, keyed: KeyedChoices, *, key_bits: int = 63) -> None:
        super().__init__(keyed.n_bins, keyed.d)
        if not 1 <= key_bits <= 63:
            raise ConfigurationError(
                f"key_bits must be in [1, 63], got {key_bits}"
            )
        self.keyed = keyed
        self._key_high = 1 << key_bits

    @property
    def distinct(self) -> bool:
        """Delegates to the wrapped keyed scheme."""
        return self.keyed.distinct

    def batch(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Row-major ``(trials, d)`` choices: the transposed *view* of
        :meth:`batch_planar` (same draws)."""
        return self.batch_planar(trials, rng).T

    def batch_planar(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``trials`` fresh keys and hash them to ``(d, trials)``
        planes through :meth:`KeyedChoices.choices_planar`."""
        keys = rng.integers(0, self._key_high, size=trials, dtype=np.int64)
        return self.keyed.choices_planar(keys)

    def describe(self) -> str:
        """Label wrapping the adapted keyed scheme's own description."""
        return f"keyed-stream({self.keyed.describe()})"
