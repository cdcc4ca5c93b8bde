"""Invertible Bloom Lookup Table with double-hashed cell selection.

The IBLT (Goodrich–Mitzenmacher) is *the* data structure whose recovery
procedure is literally the peeling process of :mod:`repro.peeling`: each
key occupies ``d`` cells; each cell keeps (count, keySum, checkSum,
valueSum).  The three sums are int64 sums that wrap modulo 2^64, the
algebra of Goodrich–Mitzenmacher's paper (XOR is another valid one, but
``np.add.at`` scatters several times faster than ``np.bitwise_xor.at``).
checkSum sums an independent 32-bit checksum hash of each key, the
standard guard that makes "this cell holds exactly one entry" checkable
to ~2⁻³² instead of trusting a raw count of ±1 (several colliding
entries can sum to a plausible-looking phantom key otherwise).  A cell
is *pure* when ``|count| = 1``, ``k = count·keySum`` lies in
``[0, 2**key_bits)`` and ``count·checkSum`` equals ``k``'s checksum; its
entry is ``(k, count·valueSum)`` with sign ``count``.  Listing
repeatedly finds a verified pure cell, reads its entry, and deletes it —
i.e. peels a hyperedge.  Complete listing succeeds exactly when the
key-cell hypergraph's 2-core is empty, so the density-evolution
thresholds apply (c₃ ≈ 0.818 keys per cell, …; the precise constants
live in :mod:`repro.certify.anchors`).

Cell selection supports both modes of this repository's central question:
``d`` independent hashes or two hashes combined double-hashing style.  The
duplicate-edge caveat (see :mod:`repro.peeling.experiment`) applies in the
double mode: two distinct keys drawing identical cell sets are unpeelable
even below threshold — but remain *detectable* (their cells end with
count 2), so listing reports them as residue rather than failing
silently.

The table has two faces:

- a scalar face (``insert`` / ``delete`` / ``get`` / ``list_entries``) —
  one key at a time, kept as the easy-to-audit reference;
- a batched face (``insert_many`` / ``delete_many`` /
  ``list_entries_batched``) — whole key arrays hashed in one tabulation
  sweep that yields the cell hashes and the checksum together
  (:func:`~repro.kernels.hash_schemes.tabulation_hash_u64` over a stack
  of tables), cells built column-major, updates applied one cell column
  at a time with ``np.add.at`` (inserts) or ``np.subtract.at``
  (deletes) scatters straight from the key, checksum and value arrays,
  and listing run as synchronous peeling rounds mirroring the kernel
  contract of :mod:`repro.kernels.peeling`.
  A key whose cells repeat (random mode, or double mode on a composite
  ``m`` that is not a power of two) touches each distinct cell once:
  a column skips the keys whose cell there repeats an earlier one.
  Both faces produce identical cell states for the same operations,
  and a pure-Python oracle pins those states in the test suite.

Field widths are negotiated up front in the
:func:`~repro.kernels.packing.check_packed_fields` style: ``key_bits``
(at most the 63 value bits of int64) bounds the keys accepted, values
are non-negative int64, and ``capacity`` sizes the count dtype (int32
when the signed count range fits 31 value bits, int64 otherwise) — count
overflow is a loud :class:`~repro.errors.ConfigurationError` at
construction or insertion, never a silent wrap mid-experiment.  The sum
fields wrap by design and lose nothing: a pure cell's entry is exact
modulo 2^64, and keys and values fit in 63 bits.  Keys and values must
be integers on both faces: a floating, complex, bool or object key or
value raises the same error instead of being truncated onto some
integer.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.hash_functions import TabulationHash, _digest
from repro.hashing.keyed import _as_key_array
from repro.kernels.hash_schemes import flatten_tables, tabulation_hash_u64
from repro.kernels.packing import (
    INT32_VALUE_BITS,
    INT64_VALUE_BITS,
    check_packed_fields,
    field_width,
)
from repro.rng import default_generator

__all__ = ["BatchListResult", "IBLT", "ListResult"]

#: The four per-cell arrays.
_FIELDS = ("count", "key_sum", "check_sum", "value_sum")


def _wrap_int64(x: int) -> int:
    """Fold a Python int to the signed 64-bit value an int64 cell holds."""
    return (x + (1 << 63)) % (1 << 64) - (1 << 63)


@dataclass(frozen=True)
class ListResult:
    """Outcome of :meth:`IBLT.list_entries`.

    Attributes
    ----------
    complete:
        True when every entry was recovered (the table is now empty).
    entries:
        Recovered ``(key, value)`` pairs, in peeling order.
    residue_cells:
        Number of nonempty cells left (0 when complete) — cells where
        the count *or* the key sum is nonzero, so cancelled-count cells
        (e.g. a +1 and a −1 entry colliding) still register.
    """

    complete: bool
    entries: list[tuple[int, int]]
    residue_cells: int


@dataclass(frozen=True)
class BatchListResult:
    """Outcome of :meth:`IBLT.list_entries_batched` (array form).

    Attributes
    ----------
    complete:
        True when every entry was recovered (the table is now empty).
    keys, values:
        Recovered entries in peeling order (ascending cell order within
        each synchronous round), as int64 arrays.
    signs:
        +1 for net-inserted entries, −1 for net-deleted ones — the
        direction information set reconciliation needs (an entry of the
        subtrahend table surfaces with sign −1 after :meth:`IBLT.subtract`).
    residue_cells:
        Number of nonempty cells left (count or key sum nonzero).
    rounds:
        Synchronous peeling rounds that recovered at least one entry.
    """

    complete: bool
    keys: np.ndarray
    values: np.ndarray
    signs: np.ndarray
    residue_cells: int
    rounds: int

    @property
    def entries(self) -> list[tuple[int, int]]:
        """The recovered pairs as a python list (scalar-face shape)."""
        return list(zip(self.keys.tolist(), self.values.tolist()))


@dataclass(frozen=True)
class _CellConfig:
    """Resolved width negotiation: key bound and count carrier."""

    key_bits: int
    count_dtype: np.dtype = field(repr=False)


def _negotiate_widths(m: int, key_bits: int, capacity: int) -> _CellConfig:
    """Pick the count carrier and validate the key field width.

    Keys are non-negative int64 values summed into int64 accumulators
    that wrap modulo 2^64, so ``key_bits`` may not exceed
    :data:`~repro.kernels.packing.INT64_VALUE_BITS`.  The count
    field needs ``field_width(capacity + 1)`` magnitude bits plus a sign
    bit; it lands in int32 when that fits 31 value bits (the common
    case — half the memory at millions of cells), else int64.
    """
    check_packed_fields(
        {"key": key_bits}, carrier_bits=INT64_VALUE_BITS, context="IBLT key field"
    )
    if key_bits < 1:
        raise ConfigurationError(f"key_bits must be positive, got {key_bits}")
    if capacity < 1:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    count_bits = field_width(capacity + 1)
    if count_bits + 1 <= INT32_VALUE_BITS:
        dtype = np.dtype(np.int32)
    else:
        check_packed_fields(
            {"count": count_bits, "sign": 1},
            carrier_bits=INT64_VALUE_BITS,
            context="IBLT count field",
        )
        dtype = np.dtype(np.int64)
    return _CellConfig(key_bits=key_bits, count_dtype=dtype)


class IBLT:
    """An invertible Bloom lookup table over int64 keys and values.

    Parameters
    ----------
    m:
        Number of cells.
    d:
        Cells per key.
    mode:
        ``"double"`` (two tabulation hashes combined as ``f + i·g``) or
        ``"random"`` (d independent tabulation hashes).
    seed:
        Seeds the hash functions.
    key_bits:
        Width bound on keys (default 63 — the full int64 value range).
        Narrower bounds document the workload and are enforced on every
        insert/delete.
    capacity:
        Bound on the total number of operations (insert + delete) the
        table will see; sizes the per-cell count dtype (int32 when the
        signed range fits, int64 otherwise).  Defaults to ``2**31 - 2``
        (the full int32 range).

    Notes
    -----
    Deletions of never-inserted keys are allowed (counts go negative),
    supporting the set-difference use of IBLTs; a cell is *pure* when its
    count is ±1, ``count·keySum`` is a key in ``[0, 2**key_bits)`` and
    ``count·checkSum`` equals that key's checksum (module docstring).
    """

    def __init__(
        self,
        m: int,
        d: int,
        *,
        mode: str = "double",
        seed: int | np.random.Generator | None = None,
        key_bits: int = INT64_VALUE_BITS,
        capacity: int = (1 << 31) - 2,
    ) -> None:
        if m < 2:
            raise ConfigurationError(f"m must be at least 2, got {m}")
        if d < 2:
            raise ConfigurationError(f"d must be at least 2, got {d}")
        if d > m:
            raise ConfigurationError(f"d={d} exceeds cell count m={m}")
        if mode not in ("double", "random"):
            raise ConfigurationError(
                f"mode must be 'double' or 'random', got {mode!r}"
            )
        config = _negotiate_widths(m, key_bits, capacity)
        rng = default_generator(seed)
        self.m = int(m)
        self.d = int(d)
        self.mode = mode
        self.key_bits = config.key_bits
        self.capacity = int(capacity)
        self.count = np.zeros(m, dtype=config.count_dtype)
        self.key_sum = np.zeros(m, dtype=np.int64)
        self.check_sum = np.zeros(m, dtype=np.int64)
        self.value_sum = np.zeros(m, dtype=np.int64)
        self._is_pow2 = (m & (m - 1)) == 0
        self._n_ops = 0
        # Double mode: f then g.  Random mode: one hash per cell.
        self._hashes = tuple(
            TabulationHash(m, rng) for _ in range(2 if mode == "double" else d)
        )
        # Drawn after the cell hashes so their streams stay seed-stable.
        self._check = TabulationHash(1 << 32, rng)
        # Every table a key needs, stacked for one tabulation sweep;
        # the checksum's is the last row.
        self._flat = np.stack(
            [flatten_tables(h.tables) for h in (*self._hashes, self._check)]
        )

    # -- identity -----------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable digest of the table geometry and hash functions.

        Two tables with equal fingerprints map every key to the same
        cells — the precondition :meth:`subtract` checks.
        """
        parts = [h.fingerprint() for h in (*self._hashes, self._check)]
        return _digest("iblt", self.m, self.d, self.mode, *parts)

    def _clone_empty(self) -> IBLT:
        """A zeroed table sharing this table's geometry and hashes."""
        clone = copy.copy(self)
        for name in _FIELDS:
            setattr(clone, name, np.zeros_like(getattr(self, name)))
        clone._n_ops = 0
        return clone

    # -- cell selection ---------------------------------------------------

    def _cell_columns(self, words: np.ndarray) -> np.ndarray:
        """The ``(d, k)`` cell columns from the cell hashes' raw words.

        ``words`` is the tabulation kernel's output for the cell hashes,
        one row per hash; each row is reduced to ``[0, m)`` in place.
        Random mode: the reduced rows are the columns.  Double mode
        forces the stride to a unit (``g | 1`` for power-of-two ``m``,
        ``g → 1`` where zero otherwise) and fills the progression
        ``(f + i·g) mod m`` as ``g·i``, then ``+= f``, then a mask
        (power-of-two ``m``) or a modulo.
        """
        rows = [h.reduce(w) for h, w in zip(self._hashes, words)]
        if self.mode == "random":
            return words.view(np.int64)
        f, g = rows
        if self._is_pow2:
            g |= 1
        else:
            np.maximum(g, 1, out=g)
        cols = np.empty((self.d, f.size), dtype=np.int64)
        np.multiply(np.arange(self.d, dtype=np.int64)[:, None], g, out=cols)
        cols += f
        if self._is_pow2:
            cols &= self.m - 1
        else:
            cols %= self.m
        return cols

    def cells_batch(self, keys: np.ndarray) -> np.ndarray:
        """The ``(len(keys), d)`` cell matrix, hashed as whole arrays.

        Built column-major (see :meth:`_cell_columns`) and returned
        transposed.  Rows may contain repeats in random mode, or in
        double mode when ``m`` is neither a power of two nor prime (the
        stride may share a factor with ``m``); the update path touches
        such a cell once.
        """
        keys = _as_key_array(keys)
        return self._cell_columns(tabulation_hash_u64(keys, self._flat[:-1])).T

    def cells(self, key: int) -> np.ndarray:
        """The ``d`` cells of ``key`` (scalar face of :meth:`cells_batch`)."""
        return self.cells_batch([key])[0]

    # -- updates ------------------------------------------------------------

    def _validate_batch(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        keys = _as_key_array(keys)
        values = _as_key_array(values)
        if keys.shape != values.shape:
            raise ConfigurationError(
                f"keys and values must align, got {keys.shape} vs {values.shape}"
            )
        if keys.size:
            if int(keys.min()) < 0 or int(keys.max()) >> self.key_bits:
                raise ConfigurationError(
                    f"keys must lie in [0, 2**{self.key_bits}) "
                    "(the negotiated key field width)"
                )
            if int(values.min()) < 0:
                raise ConfigurationError("values must be non-negative")
        if self._n_ops + keys.size > self.capacity:
            raise ConfigurationError(
                f"operation count would exceed capacity={self.capacity} "
                "(the negotiated count field width); construct the table "
                "with a larger capacity"
            )
        return keys, values

    def _apply_many(
        self, keys: np.ndarray, values: np.ndarray, signs: np.ndarray | int
    ) -> None:
        """Scatter a batch of signed entries into the cell arrays.

        One tabulation sweep per call yields the cells and the
        checksums, then one pass per cell column scatters the count,
        key, checksum and value: ``np.add.at`` for a scalar sign +1,
        ``np.subtract.at`` for −1, and ``np.add.at`` of ``sign·x`` for
        a per-entry sign array (a listing round).  A key occupying a
        cell twice touches it once, as it counts once in the
        pure-Python oracle of the test suite: column ``j`` skips the
        keys whose ``j``-th cell repeats one of their earlier cells, and
        is scattered whole when no key repeats.
        """
        k = keys.size
        if k == 0:
            return
        words = tabulation_hash_u64(keys, self._flat)
        cols = self._cell_columns(words[:-1])
        checks = self._check.reduce(words[-1])
        if np.ndim(signs):
            scatter = np.add
            counts = signs.astype(self.count.dtype)
            keys, checks, values = keys * signs, checks * signs, values * signs
        else:
            scatter = np.add if signs > 0 else np.subtract
            # A count-dtype array, not the Python int 1: against int32
            # counts that would push ``ufunc.at`` off its fast loop.
            counts = np.broadcast_to(self.count.dtype.type(1), (k,))
        updates = (
            (self.count, counts),
            (self.key_sum, keys),
            (self.check_sum, checks),
            (self.value_sum, values),
        )
        for j, cells in enumerate(cols):
            fresh = ~(cols[:j] == cells).any(axis=0)
            pick = slice(None) if fresh.all() else fresh
            cells = cells[pick]
            for target, x in updates:
                scatter.at(target, cells, x[pick])

    def insert_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert whole key/value arrays (one hash sweep, column scatters)."""
        keys, values = self._validate_batch(keys, values)
        self._apply_many(keys, values, +1)
        self._n_ops += keys.size

    def delete_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Delete whole key/value arrays (tolerates deleting before inserting)."""
        keys, values = self._validate_batch(keys, values)
        self._apply_many(keys, values, -1)
        self._n_ops += keys.size

    def insert(self, key: int, value: int) -> None:
        """Insert a key/value pair (scalar face of :meth:`insert_many`)."""
        self.insert_many([key], [value])

    def delete(self, key: int, value: int) -> None:
        """Delete a pair (scalar face of :meth:`delete_many`)."""
        self.delete_many([key], [value])

    def subtract(self, other: IBLT) -> IBLT:
        """The cell-wise difference ``self − other`` as a new table.

        The set-reconciliation primitive: when both parties build tables
        with identical geometry and hash seeds, the difference table
        holds exactly the symmetric difference of their key sets —
        listing it yields sign +1 for keys only in ``self`` and sign −1
        for keys only in ``other``.  Raises
        :class:`~repro.errors.ConfigurationError` when the fingerprints
        differ (different hashes would subtract unrelated cells).
        """
        if not isinstance(other, IBLT):
            raise ConfigurationError(
                f"can only subtract another IBLT, got {type(other).__name__}"
            )
        if self.fingerprint() != other.fingerprint():
            raise ConfigurationError(
                "cannot subtract IBLTs with different geometry or hash "
                "seeds (fingerprints differ)"
            )
        diff = self._clone_empty()
        for name in _FIELDS:
            np.subtract(getattr(self, name), getattr(other, name),
                        out=getattr(diff, name))
        diff._n_ops = min(self._n_ops + other._n_ops, diff.capacity)
        return diff

    # -- queries ------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when every cell is zeroed."""
        return not any(getattr(self, name).any() for name in _FIELDS)

    def get(self, key: int) -> int | None:
        """Value of ``key`` if one of its cells holds it alone, else None.

        A cell answers only when it is pure by the listers' rule, with
        count +1 and key ``key``; its valueSum is then the value.  Every
        cell of ``key`` is examined: a cell whose count and key sum are
        both 0 does not prove ``key`` absent, because entries can cancel
        there (``+k +a −b −c`` with ``k + a = b + c``).  Returns None for
        absent and net-deleted keys, and for keys whose cells are all
        shared (an inherent IBLT limitation).
        """
        for c in self.cells(key):
            if self.count[c] == 1 and self._pure_cell_key(int(c)) == key:
                return int(self.value_sum[c])
        return None

    def _pure_cell_key(self, c: int) -> int | None:
        """Key recoverable from cell ``c`` if it is verified pure.

        Python-int arithmetic throughout: the numpy scalar product
        ``-1 · INT64_MIN`` would raise an overflow warning.
        """
        count = int(self.count[c])
        if abs(count) != 1:
            return None
        key = count * int(self.key_sum[c])
        # Verify via the checksum field (guards against colliding entries
        # summing to a valid key, to ~2^-32, per the standard IBLT design).
        # Both sides lie within 2^63 of zero, so comparing them as Python
        # ints is comparing them modulo 2^64.
        if 0 <= key < 1 << self.key_bits and (
            count * int(self.check_sum[c]) == self._check.scalar(key)
        ):
            return key
        return None

    def _residue_cells(self) -> int:
        """Nonempty cells: count *or* key sum nonzero (no short-circuit)."""
        return int(np.count_nonzero((self.count != 0) | (self.key_sum != 0)))

    def list_entries(self) -> ListResult:
        """Peel the table, recovering all entries (destructive, scalar).

        Recovers every entry that some verified pure cell exposes:
        net-inserted entries (count +1) and net-deleted ones (count −1),
        each with its value ``count·valueSum``.  A key inserted twice
        leaves count 2 in its cells and is never recovered; peeling
        lists entries of net multiplicity ±1 only.  The reference lister
        — one cell at a time; :meth:`list_entries_batched` is the
        vectorized equivalent.
        """
        entries: list[tuple[int, int]] = []
        queue = [c for c in range(self.m) if abs(self.count[c]) == 1]
        while queue:
            c = queue.pop()
            key = self._pure_cell_key(int(c))
            if key is None:
                continue
            sign = int(self.count[c])
            value = _wrap_int64(sign * int(self.value_sum[c]))
            entries.append((key, value))
            self._apply_many(
                np.array([key], dtype=np.int64),
                np.array([value], dtype=np.int64),
                -sign,
            )
            for c2 in np.unique(self.cells(key)):
                if abs(self.count[c2]) == 1:
                    queue.append(int(c2))
        return ListResult(
            complete=self.is_empty,
            entries=entries,
            residue_cells=self._residue_cells(),
        )

    def list_entries_batched(self) -> BatchListResult:
        """Peel the table in synchronous vectorized rounds (destructive).

        The batched face of :meth:`list_entries`, shaped like the
        peeling kernel of :mod:`repro.kernels.peeling`: each round
        gathers every cell with count ±1, verifies purity for the whole
        candidate array at once (one fused checksum-hash evaluation
        against the checkSum field), deduplicates recovered keys, and
        removes the verified batch with one scatter pass.  Recovers the same
        entry multiset as the scalar lister on well-formed tables, plus
        the per-entry sign array reconciliation needs.

        Rounds are capped at ``m + 1`` — each productive round removes
        at least one of at most ``m``-ish recoverable entries, so the
        cap is unreachable except under adversarial checksum
        coincidences, where it guarantees termination (reported as
        incomplete).
        """
        keys_out: list[np.ndarray] = []
        values_out: list[np.ndarray] = []
        signs_out: list[np.ndarray] = []
        rounds = 0
        for _ in range(self.m + 1):
            candidates = np.flatnonzero(np.abs(self.count) == 1)
            if candidates.size == 0:
                break
            signs = self.count[candidates].astype(np.int64)
            cand_keys = self.key_sum[candidates] * signs
            valid = (cand_keys >> self.key_bits) == 0
            checks = self._check(np.where(valid, cand_keys, 0))
            pure = valid & (checks == self.check_sum[candidates] * signs)
            if not pure.any():
                break  # remaining ±1 cells are phantoms, stuck
            pure_cells = candidates[pure]
            batch_keys = cand_keys[pure]
            # One key may be pure in several cells this round — keep the
            # first (lowest-cell) occurrence of each.
            _, first = np.unique(batch_keys, return_index=True)
            first.sort()
            batch_keys = batch_keys[first]
            batch_cells = pure_cells[first]
            batch_signs = signs[pure][first]
            batch_values = self.value_sum[batch_cells] * batch_signs
            self._apply_many(batch_keys, batch_values, -batch_signs)
            keys_out.append(batch_keys)
            values_out.append(batch_values)
            signs_out.append(batch_signs)
            rounds += 1
        empty = np.empty(0, dtype=np.int64)
        return BatchListResult(
            complete=self.is_empty,
            keys=np.concatenate(keys_out) if keys_out else empty,
            values=np.concatenate(values_out) if values_out else empty.copy(),
            signs=np.concatenate(signs_out) if signs_out else empty.copy(),
            residue_cells=self._residue_cells(),
            rounds=rounds,
        )

    @property
    def load(self) -> float:
        """Entries per cell, estimated from total count mass / d."""
        return float(self.count.sum()) / (self.d * self.m)
