"""Vectorized open-addressed assignment-map kernel (int64 key -> int32 bin).

The service layer's key->bin assignment used to live in a Python dict
walked one key at a time — the only per-key interpreted loop left on a
hot path.  This module replaces it with the paper's own medicine: a flat
double-hashed open-addressed table (probe sequence ``start + t*stride``
with an odd stride from one splitmix64 pass, see
:mod:`repro.hashing.probe`) with fully batched operations:

- ``insert_many(keys, values)`` — *set-default* semantics in batch
  order: a key already present keeps its stored value (returned), an
  absent key is inserted (``-1`` returned).  Duplicate keys inside one
  batch behave exactly as if processed sequentially.
- ``delete_many(keys)`` — tombstone deletion; returns the freed value or
  ``-1`` per key, again with exact sequential batch semantics.
- ``lookup_many(keys)`` — stored value or ``-1`` per key.

Two backends share the registry idiom (explicit argument >
``REPRO_BACKEND`` env > ``"numpy"``; unknown names raise):

- ``"reference"`` — the demoted dict path (:class:`ReferenceKeyMap`),
  the semantics oracle the kernel is tested exactly equal to;
- ``"numpy"`` — cohort probe rounds: hash all unresolved keys, gather
  the probed slots, resolve hits, claim empty slots through the value
  array with a rare same-key ordering fixup, advance the survivors.

Capacity is negotiated per batch: the table rehashes (amortized, counted
under ``keymap.rehashes``) whenever live + tombstone + incoming slots
would exceed ``MAX_FILL`` of capacity, sizing the new power-of-two table
so the post-rehash fill is at most ``GROW_FILL``.  Tombstones are *not*
reused by inserts — rehash purges them — which keeps the kernel's slot
bookkeeping identical in count to a sequential probe loop.

Observable behavior (returned arrays, mapping contents, live/tombstone
counts) is exactly equal to the oracle for any operation stream; the
physical slot *layout* depends on the cohort execution order, which is
invisible through the API and safe because the kernel maintains the
open-addressing reachability invariant.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.keyed import _as_key_array
from repro.hashing.probe import DEFAULT_PROBE_SEED, probe_start_stride
from repro.metrics import MetricsRegistry, global_registry

__all__ = [
    "EMPTY",
    "GROW_FILL",
    "KNOWN_KEYMAP_BACKENDS",
    "MAX_FILL",
    "MIN_CAP_BITS",
    "NOT_FOUND",
    "TOMBSTONE",
    "KeyMap",
    "ReferenceKeyMap",
    "make_keymap",
    "resolve_keymap_backend",
]

#: Slot-state sentinels in the value array (stored bins are >= 0).
EMPTY = np.int32(-1)
TOMBSTONE = np.int32(-2)

#: API sentinel: returned for absent keys and for fresh inserts.
NOT_FOUND = -1

#: Rehash when (live + tombstones + incoming) would exceed this fill.
MAX_FILL = 0.7
#: Post-rehash target fill: capacity is the smallest power of two with
#: (live + incoming) <= GROW_FILL * capacity.
GROW_FILL = 0.4
#: Smallest table: 2**MIN_CAP_BITS slots.
MIN_CAP_BITS = 6

KNOWN_KEYMAP_BACKENDS = ("reference", "numpy")

_I32_MAX = np.iinfo(np.int32).max


def resolve_keymap_backend(name: str | None = None) -> str:
    """Resolve a keymap backend name: explicit > ``REPRO_BACKEND`` > numpy.

    The same resolution as :func:`repro.kernels.resolve_backend`, over
    :data:`KNOWN_KEYMAP_BACKENDS`; unknown names raise
    :class:`~repro.errors.ConfigurationError`.
    """
    from repro.kernels import resolve_backend_name

    return resolve_backend_name(name, KNOWN_KEYMAP_BACKENDS)


def make_keymap(
    *,
    expected: int = 0,
    backend: str | None = None,
    metrics: MetricsRegistry | None = None,
    probe_seed: int = DEFAULT_PROBE_SEED,
):
    """Build a keymap through the backend registry.

    ``backend="reference"`` returns the dict oracle
    (:class:`ReferenceKeyMap`); ``"numpy"`` returns the flat-array
    :class:`KeyMap`.  ``expected`` presizes capacity for that many live
    keys (still grows on demand).
    """
    resolved = resolve_keymap_backend(backend)
    if resolved == "reference":
        return ReferenceKeyMap(metrics=metrics)
    return KeyMap(
        expected=expected,
        backend=resolved,
        metrics=metrics,
        probe_seed=probe_seed,
    )


def _as_vals(values, n_keys: int) -> np.ndarray:
    """Normalize a value batch to int32 in ``[0, 2^31)``.

    Like keys, non-integer values raise instead of being truncated.
    """
    arr = np.asarray(values)
    if arr.shape != (n_keys,):
        raise ConfigurationError(
            f"values must have shape ({n_keys},), got {arr.shape}"
        )
    if arr.size and arr.dtype.kind not in "iu":
        raise ConfigurationError(
            f"keymap values must be integers, got dtype {arr.dtype}"
        )
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) > _I32_MAX):
        raise ConfigurationError(
            "keymap values must be non-negative 31-bit integers "
            "(negative sentinels are reserved for slot states)"
        )
    return np.ascontiguousarray(arr, dtype=np.int32)


def _cap_bits_for(needed: int) -> int:
    """Smallest capacity exponent with ``needed <= GROW_FILL * 2**bits``."""
    bits = MIN_CAP_BITS
    while needed > GROW_FILL * (1 << bits):
        bits += 1
    if bits > 31:
        raise ConfigurationError(
            f"keymap cannot address {needed} live keys (2^31-slot ceiling)"
        )
    return bits


# ---------------------------------------------------------------------------
# numpy cohort kernels
# ---------------------------------------------------------------------------
#
# Claim protocol: a probe round gathers the slots of every unresolved
# key, resolves hits (reinserts / found deletes), and lets the keys that
# landed on usable slots *claim* them by scattering their batch index
# into the value array ``tvals`` and reading it back.  NumPy fancy
# assignment stores the LAST value written for a repeated index
# (documented in the indexing guide, and pinned by a canary test in
# tests/kernels/test_keymap.py), so scattering in REVERSE batch order
# makes the EARLIEST occurrence win — exactly the sequential/dict
# winner, which is what makes duplicate keys inside one batch behave
# bit-identically to the oracle without any per-slot reduction pass.
# The kernels overwrite every claimed batch index within the same round
# (with the winner's value, or TOMBSTONE for a delete), so no later
# round reads one and the table needs no claim scratch: 12 bytes per
# slot, int64 key plus int32 value.


def _insert_numpy(tkeys, tvals, cap_bits, keys, vals, probe_seed):
    """Cohort-probe batch insert (set-default).  Returns (prev, stats).

    Keys are gathered only at probed slots whose value is live: an
    EMPTY or TOMBSTONE slot cannot hold the probing key, and the int64
    key gather is a round's costliest read.  Every ``insert_many`` and
    every rehash (a set-default of distinct keys into an empty table)
    runs here.
    """
    mask = np.int32((1 << cap_bits) - 1)
    n = keys.size
    cur, stride = probe_start_stride(keys, cap_bits, probe_seed)
    prev = np.full(n, NOT_FOUND, dtype=np.int64)
    idx = np.arange(n, dtype=np.int32)
    kk = keys
    probes = 0
    rounds = 0
    inserted = 0
    while cur.size:
        rounds += 1
        probes += cur.size
        v = tvals.take(cur)
        res = np.zeros(cur.size, dtype=bool)
        l_sel = np.flatnonzero(v >= 0)
        if l_sel.size:
            h_sel = l_sel[tkeys.take(cur.take(l_sel)) == kk.take(l_sel)]
            prev[idx.take(h_sel)] = v.take(h_sel)
            res[h_sel] = True
        e_sel = np.flatnonzero(v == EMPTY)
        if e_sel.size:
            ecur = cur.take(e_sel)
            eidx = idx.take(e_sel)
            rv = slice(None, None, -1)
            tvals[ecur[rv]] = eidx[rv]
            w = tvals.take(ecur)
            # Every claimant of a slot stores its winner's key and value,
            # so the slot is final before any later round can probe it.
            tkeys[ecur] = keys.take(w)
            tvals[ecur] = vals.take(w)
            ewin = w == eidx
            inserted += int(np.count_nonzero(ewin))
            # Claim losers chasing a duplicate of their own key resolve
            # against the winner's value; different-key losers probe on
            # (no empty slot can precede a key's storage slot, so a key
            # probing an empty slot is guaranteed absent).
            l_sel = np.flatnonzero(~ewin)
            if l_sel.size:
                s_sel = l_sel[keys.take(w[l_sel]) == kk.take(e_sel[l_sel])]
                prev[eidx[s_sel]] = vals.take(w[s_sel])
                ewin[s_sel] = True
            res[e_sel] = ewin
        sel = np.flatnonzero(~res)
        if sel.size == 0:
            break
        stride = stride.take(sel)
        cur = (cur.take(sel) + stride) & mask
        idx = idx.take(sel)
        kk = kk.take(sel)
    return prev, inserted, probes, rounds


def _delete_numpy(tkeys, tvals, cap_bits, keys, probe_seed):
    """Cohort-probe batch delete (tombstones).  Returns (prev, stats)."""
    mask = np.int32((1 << cap_bits) - 1)
    n = keys.size
    cur, stride = probe_start_stride(keys, cap_bits, probe_seed)
    prev = np.full(n, NOT_FOUND, dtype=np.int64)
    idx = np.arange(n, dtype=np.int32)
    kk = keys
    probes = 0
    rounds = 0
    deleted = 0
    while cur.size:
        rounds += 1
        probes += cur.size
        v = tvals.take(cur)
        hit = tkeys.take(cur) == kk
        hit &= v >= 0
        resolved = v == EMPTY  # miss: prev stays NOT_FOUND
        h_sel = np.flatnonzero(hit)
        if h_sel.size:
            # Only same-key duplicates can contend for a found slot; the
            # reversed claim hands the pop to the first occurrence and
            # the rest probe on to a miss — the oracle's exact behavior.
            # Each hit slot has exactly one winner, so every one of them
            # becomes a tombstone.
            ht = cur[h_sel]
            hidx = idx[h_sel]
            tvals[ht[::-1]] = hidx[::-1]
            w = h_sel[tvals.take(ht) == hidx]
            tvals[ht] = TOMBSTONE
            prev[idx[w]] = v[w]
            deleted += w.size
            resolved[w] = True
        sel = np.flatnonzero(~resolved)
        if sel.size == 0:
            break
        stride = stride.take(sel)
        cur = (cur.take(sel) + stride) & mask
        idx = idx.take(sel)
        kk = kk.take(sel)
    return prev, deleted, probes, rounds


def _lookup_numpy(tkeys, tvals, cap_bits, keys, probe_seed):
    """Cohort-probe batch lookup.  Returns (out, probes, rounds)."""
    mask = np.int32((1 << cap_bits) - 1)
    n = keys.size
    cur, stride = probe_start_stride(keys, cap_bits, probe_seed)
    out = np.full(n, NOT_FOUND, dtype=np.int64)
    idx = np.arange(n, dtype=np.int32)
    kk = keys
    probes = 0
    rounds = 0
    while cur.size:
        rounds += 1
        probes += cur.size
        v = tvals.take(cur)
        hit = tkeys.take(cur) == kk
        hit &= v >= 0
        if hit.any():
            out[idx[hit]] = v[hit]
        cont = np.flatnonzero((v != EMPTY) & ~hit)
        if cont.size == 0:
            break
        stride = stride.take(cont)
        cur = (cur.take(cont) + stride) & mask
        idx = idx.take(cont)
        kk = kk.take(cont)
    return out, probes, rounds


# ---------------------------------------------------------------------------
# The flat-array map
# ---------------------------------------------------------------------------


class KeyMap:
    """Flat open-addressed int64-key -> int32-value map, batched ops only.

    Parameters
    ----------
    expected:
        Presize capacity for this many live keys (the map still grows on
        demand; 0 starts at the 64-slot minimum).
    backend:
        Kernel tier (``"numpy"``), or ``None`` for registry resolution.
        ``"reference"`` is rejected here — use :func:`make_keymap`, which
        routes it to :class:`ReferenceKeyMap`.
    metrics:
        Registry receiving ``keymap.*`` counters (global by default).
    probe_seed:
        Keying constant of the probe hash (fixed default; the layout
        never leaks into results).
    """

    def __init__(
        self,
        *,
        expected: int = 0,
        backend: str | None = None,
        metrics: MetricsRegistry | None = None,
        probe_seed: int = DEFAULT_PROBE_SEED,
    ) -> None:
        resolved = resolve_keymap_backend(backend)
        if resolved == "reference":
            raise ConfigurationError(
                "KeyMap is the flat-array form; use make_keymap() for the "
                "'reference' dict oracle"
            )
        self.backend = resolved
        self.probe_seed = int(probe_seed)
        self._metrics = metrics if metrics is not None else global_registry()
        self._live = 0
        self._tombstones = 0
        self._alloc(_cap_bits_for(max(int(expected), 0)))

    def _alloc(self, cap_bits: int) -> None:
        # fill() (rather than np.full/np.zeros) touches every page at
        # allocation time, keeping first-touch page faults out of the
        # timed operation kernels.
        self.cap_bits = cap_bits
        cap = 1 << cap_bits
        self._keys = np.empty(cap, dtype=np.int64)
        self._keys.fill(0)
        self._vals = np.empty(cap, dtype=np.int32)
        self._vals.fill(EMPTY)

    # -- inspection -------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of live keys."""
        return self._live

    @property
    def tombstones(self) -> int:
        """Deleted slots awaiting the next rehash."""
        return self._tombstones

    @property
    def capacity(self) -> int:
        """Total slots (a power of two)."""
        return 1 << self.cap_bits

    @property
    def nbytes(self) -> int:
        """Flat storage footprint: 12 bytes per slot (keys + values)."""
        return self._keys.nbytes + self._vals.nbytes

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """Live ``(keys, values)`` int64 arrays, in slot (unspecified) order."""
        live = self._vals >= 0
        return self._keys[live], self._vals[live].astype(np.int64)

    def __len__(self) -> int:
        return self._live

    def describe(self) -> str:
        """One-line description used in reports."""
        return (
            f"KeyMap(backend={self.backend}, size={self._live}, "
            f"capacity={self.capacity}, tombstones={self._tombstones})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()

    # -- capacity ---------------------------------------------------------

    def _ensure_capacity(self, incoming: int) -> None:
        if (
            self._live + self._tombstones + incoming
            <= MAX_FILL * self.capacity
        ):
            return
        self._rehash(_cap_bits_for(self._live + incoming))

    def _rehash(self, cap_bits: int) -> None:
        live = self._vals >= 0
        keys, vals = self._keys[live], self._vals[live]
        self._alloc(cap_bits)
        if keys.size:
            _insert_numpy(
                self._keys, self._vals, cap_bits, keys, vals, self.probe_seed
            )
        self._tombstones = 0
        self._metrics.increment("keymap.rehashes", 1)
        self._metrics.increment("keymap.rehash_slots", int(keys.size))

    # -- operations -------------------------------------------------------

    def insert_many(self, keys, values) -> np.ndarray:
        """Set-default a batch; returns the prior value or ``-1`` per key."""
        keys = _as_key_array(keys)
        vals = _as_vals(values, keys.size)
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        self._ensure_capacity(keys.size)
        prev, inserted, probes, rounds = _insert_numpy(
            self._keys,
            self._vals,
            self.cap_bits,
            keys,
            vals,
            self.probe_seed,
        )
        self._live += int(inserted)
        self._count(probes, rounds)
        return prev

    def delete_many(self, keys) -> np.ndarray:
        """Tombstone a batch; returns the freed value or ``-1`` per key."""
        keys = _as_key_array(keys)
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        prev, deleted, probes, rounds = _delete_numpy(
            self._keys, self._vals, self.cap_bits, keys, self.probe_seed
        )
        self._live -= int(deleted)
        self._tombstones += int(deleted)
        self._count(probes, rounds)
        return prev

    def lookup_many(self, keys) -> np.ndarray:
        """Stored value or ``-1`` per key; the map is not modified."""
        keys = _as_key_array(keys)
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        out, probes, rounds = _lookup_numpy(
            self._keys, self._vals, self.cap_bits, keys, self.probe_seed
        )
        self._count(probes, rounds)
        return out

    def _count(self, probes: int, rounds: int) -> None:
        self._metrics.increment("keymap.probes", int(probes))
        self._metrics.increment("keymap.probe_rounds", int(rounds))
        self._metrics.increment(f"keymap.calls.{self.backend}", 1)


class ReferenceKeyMap:
    """The demoted dict path: the semantics oracle for the kernel.

    Exactly the per-key Python loop the service layer used to run — one
    ``dict`` walked in batch order — behind the same batched API, so the
    cross-backend suites can assert exact equality of every returned
    array and of the final mapping contents.
    """

    backend = "reference"

    def __init__(self, *, metrics: MetricsRegistry | None = None) -> None:
        self._d: dict[int, int] = {}
        self._metrics = metrics if metrics is not None else global_registry()

    @property
    def size(self) -> int:
        """Number of live keys."""
        return len(self._d)

    @property
    def tombstones(self) -> int:
        """Always 0: the dict oracle has no tombstones."""
        return 0

    @property
    def capacity(self) -> int:
        """Reported as the live size (the dict has no fixed slot table)."""
        return len(self._d)

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """Live ``(keys, values)`` int64 arrays, in insertion order."""
        keys = np.fromiter(self._d.keys(), dtype=np.int64, count=len(self._d))
        vals = np.fromiter(self._d.values(), dtype=np.int64, count=len(self._d))
        return keys, vals

    def __len__(self) -> int:
        return len(self._d)

    def describe(self) -> str:
        """One-line description used in reports."""
        return f"ReferenceKeyMap(size={len(self._d)})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()

    def insert_many(self, keys, values) -> np.ndarray:
        """Set-default a batch; returns the prior value or ``-1`` per key."""
        keys = _as_key_array(keys)
        vals = _as_vals(values, keys.size)
        out = np.empty(keys.size, dtype=np.int64)
        d = self._d
        get = d.get
        for i, (k, v) in enumerate(zip(keys.tolist(), vals.tolist())):
            prior = get(k)
            if prior is None:
                d[k] = v
                out[i] = NOT_FOUND
            else:
                out[i] = prior
        self._metrics.increment("keymap.calls.reference", 1)
        return out

    def delete_many(self, keys) -> np.ndarray:
        """Remove a batch; returns the freed value or ``-1`` per key."""
        keys = _as_key_array(keys)
        out = np.empty(keys.size, dtype=np.int64)
        pop = self._d.pop
        for i, k in enumerate(keys.tolist()):
            out[i] = pop(k, NOT_FOUND)
        self._metrics.increment("keymap.calls.reference", 1)
        return out

    def lookup_many(self, keys) -> np.ndarray:
        """Stored value or ``-1`` per key; the map is not modified."""
        keys = _as_key_array(keys)
        out = np.empty(keys.size, dtype=np.int64)
        get = self._d.get
        for i, k in enumerate(keys.tolist()):
            out[i] = get(k, NOT_FOUND)
        self._metrics.increment("keymap.calls.reference", 1)
        return out
