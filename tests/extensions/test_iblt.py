"""Tests for the invertible Bloom lookup table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.extensions.iblt import IBLT
from repro.numtheory import is_prime
from repro.peeling import peeling_threshold


class TestBasics:
    @pytest.mark.parametrize("mode", ["double", "random"])
    def test_insert_get(self, mode):
        t = IBLT(256, 3, mode=mode, seed=1)
        t.insert(42, 100)
        t.insert(77, 200)
        assert t.get(42) == 100
        assert t.get(77) == 200

    def test_absent_key_none(self):
        t = IBLT(256, 3, seed=2)
        t.insert(1, 10)
        assert t.get(999999) is None

    def test_insert_delete_empties(self):
        t = IBLT(128, 3, seed=3)
        t.insert(5, 50)
        t.insert(6, 60)
        t.delete(5, 50)
        t.delete(6, 60)
        assert t.is_empty

    def test_delete_before_insert_cancels(self):
        """Set-difference usage: operations commute."""
        t = IBLT(128, 3, seed=4)
        t.delete(9, 90)
        t.insert(9, 90)
        assert t.is_empty

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IBLT(1, 3)
        with pytest.raises(ConfigurationError):
            IBLT(64, 1)
        with pytest.raises(ConfigurationError):
            IBLT(2, 4)
        with pytest.raises(ConfigurationError):
            IBLT(64, 3, mode="zigzag")

    def test_double_mode_cells_distinct(self):
        t = IBLT(256, 4, mode="double", seed=5)
        for key in range(100):
            assert len(set(t.cells(key).tolist())) == 4


class TestListing:
    @pytest.mark.parametrize("mode", ["double", "random"])
    def test_lists_all_below_threshold(self, mode):
        """Well below the d = 3 peeling threshold, listing recovers
        everything."""
        m = 512
        t = IBLT(m, 3, mode=mode, seed=6)
        inserted = {k: k * 7 for k in range(1000, 1000 + m // 2)}
        for k, v in inserted.items():
            t.insert(k, v)
        result = t.list_entries()
        assert result.complete
        assert dict(result.entries) == inserted
        assert t.is_empty

    def test_listing_fails_above_threshold(self):
        """Above c* ~ 0.818 keys per cell, a macroscopic core remains."""
        m = 1024
        c = peeling_threshold(3) + 0.1
        t = IBLT(m, 3, mode="random", seed=7)
        n_keys = int(c * m)
        for k in range(n_keys):
            t.insert(k + 5, k)
        result = t.list_entries()
        assert not result.complete
        assert result.residue_cells > 0
        assert len(result.entries) < n_keys

    def test_net_deleted_entries_listed(self):
        """A net-deleted entry appears during listing (count −1 cells)."""
        t = IBLT(128, 3, seed=8)
        t.delete(31, 310)
        result = t.list_entries()
        assert result.complete
        assert (31, 310) in result.entries

    def test_set_difference_recovery(self):
        """Insert set A, delete set B: listing recovers A Δ B."""
        t = IBLT(512, 3, seed=9)
        a = {k: k * 3 for k in range(100, 160)}
        b = {k: k * 3 for k in range(140, 200)}
        for k, v in a.items():
            t.insert(k, v)
        for k, v in b.items():
            t.delete(k, v)
        result = t.list_entries()
        assert result.complete
        recovered = {k for k, _ in result.entries}
        assert recovered == set(a) ^ set(b)

    def test_listing_is_destructive(self):
        t = IBLT(128, 3, seed=10)
        t.insert(4, 44)
        t.list_entries()
        assert t.is_empty
        assert t.get(4) is None


class TestLoadEstimate:
    def test_load_tracks_entries(self):
        t = IBLT(100, 4, mode="random", seed=11)
        for k in range(25):
            t.insert(k, k)
        # 25 entries over 100 cells; duplicated cells within a key can
        # reduce the count mass slightly in random mode.
        assert t.load == pytest.approx(0.25, abs=0.02)


def _same_cellset_pair(table: IBLT, limit: int = 50000) -> tuple[int, int]:
    """Two keys whose d cells coincide exactly (double-mode collision)."""
    keys = np.arange(limit, dtype=np.int64)
    rows = np.sort(table.cells_batch(keys), axis=1)
    _, first, inverse, counts = np.unique(
        rows, axis=0, return_index=True, return_inverse=True,
        return_counts=True,
    )
    dup = np.flatnonzero(counts > 1)
    if dup.size == 0:  # pragma: no cover - seed chosen so this never trips
        pytest.skip("no duplicate cell-set pair in search range")
    members = np.flatnonzero(inverse == dup[0])
    return int(keys[members[0]]), int(keys[members[1]])


class TestResidueRegression:
    def test_cancelled_count_cell_is_counted(self):
        """Regression: residue must count cells with count 0 but keySum ≠ 0.

        Insert one key and delete another with the *same* cell set: every
        touched cell ends at count 0 with key_sum = k1 XOR k2 ≠ 0.  The
        short-circuiting scalar residue check this replaces reported 0
        here, hiding a stuck (and provably nonempty) table.
        """
        t = IBLT(64, 3, mode="double", seed=12)
        k1, k2 = _same_cellset_pair(t)
        t.insert(k1, 10)
        t.delete(k2, 20)
        assert np.count_nonzero(t.count) == 0
        assert not t.is_empty
        result = t.list_entries()
        assert not result.complete
        assert result.entries == []
        assert result.residue_cells == 3
        assert result.residue_cells == int(
            np.count_nonzero((t.count != 0) | (t.key_sum != 0))
        )

    def test_batched_lister_reports_same_residue(self):
        t1 = IBLT(64, 3, mode="double", seed=12)
        t2 = IBLT(64, 3, mode="double", seed=12)
        k1, k2 = _same_cellset_pair(t1)
        for t in (t1, t2):
            t.insert(k1, 10)
            t.delete(k2, 20)
        scalar = t1.list_entries()
        batched = t2.list_entries_batched()
        assert not batched.complete
        assert batched.residue_cells == scalar.residue_cells == 3


class TestBatchedAPI:
    @pytest.mark.parametrize("mode", ["double", "random"])
    def test_insert_many_matches_scalar_loop(self, mode):
        keys = np.arange(3000, 3200, dtype=np.int64)
        values = keys * 5
        batched = IBLT(512, 3, mode=mode, seed=13)
        scalar = IBLT(512, 3, mode=mode, seed=13)
        batched.insert_many(keys, values)
        for k, v in zip(keys, values):
            scalar.insert(int(k), int(v))
        assert np.array_equal(batched.count, scalar.count)
        assert np.array_equal(batched.key_sum, scalar.key_sum)
        assert np.array_equal(batched.check_sum, scalar.check_sum)
        assert np.array_equal(batched.value_sum, scalar.value_sum)

    @pytest.mark.parametrize("mode", ["double", "random"])
    def test_batched_listing_matches_scalar(self, mode):
        keys = np.arange(9000, 9150, dtype=np.int64)
        values = keys * 11
        t_scalar = IBLT(512, 3, mode=mode, seed=14)
        t_batched = IBLT(512, 3, mode=mode, seed=14)
        t_scalar.insert_many(keys, values)
        t_batched.insert_many(keys, values)
        scalar = t_scalar.list_entries()
        batched = t_batched.list_entries_batched()
        assert batched.complete == scalar.complete
        assert sorted(batched.entries) == sorted(scalar.entries)
        assert batched.residue_cells == scalar.residue_cells

    def test_batched_set_difference_with_negative_counts(self):
        """Subtract two tables; peel the delta with sign recovery."""
        shared = np.arange(10**4, dtype=np.int64) * 3 + 7
        a_only = np.array([10**6 + 1, 10**6 + 2], dtype=np.int64)
        b_only = np.array([2 * 10**6 + 5], dtype=np.int64)
        ta = IBLT(128, 3, seed=15)
        tb = IBLT(128, 3, seed=15)
        ta.insert_many(np.concatenate([shared, a_only]),
                       np.concatenate([shared, a_only]) * 2)
        tb.insert_many(np.concatenate([shared, b_only]),
                       np.concatenate([shared, b_only]) * 2)
        diff = ta.subtract(tb)
        assert not ta.is_empty and not tb.is_empty  # inputs untouched
        listing = diff.list_entries_batched()
        assert listing.complete
        assert sorted(listing.keys[listing.signs > 0]) == sorted(a_only)
        assert sorted(listing.keys[listing.signs < 0]) == sorted(b_only)
        assert np.array_equal(listing.values[listing.signs > 0],
                              np.sort(a_only) * 2)

    def test_subtract_requires_matching_fingerprint(self):
        ta = IBLT(128, 3, seed=16)
        tb = IBLT(128, 3, seed=17)
        with pytest.raises(ConfigurationError):
            ta.subtract(tb)

    def test_batch_validation(self):
        t = IBLT(64, 3, seed=18, key_bits=16, capacity=10)
        with pytest.raises(ConfigurationError):
            t.insert_many(np.array([1 << 20]), np.array([1]))  # key too wide
        with pytest.raises(ConfigurationError):
            t.insert_many(np.array([1]), np.array([-1]))  # negative value
        with pytest.raises(ConfigurationError):
            t.insert_many(np.array([1, 2]), np.array([1]))  # length mismatch
        with pytest.raises(ConfigurationError):
            t.insert_many(np.arange(11), np.arange(11))  # over capacity
        non_integer = (
            np.array([1.5, 7.9]),
            np.array([1.0, 7.0]),
            np.array([True, False]),
            np.array([1 + 0j, 7 + 0j]),
            np.array([1, 7], dtype=object),
        )
        for bad in non_integer:
            with pytest.raises(ConfigurationError, match="integers"):
                t.insert_many(bad, np.array([2, 3]))
            with pytest.raises(ConfigurationError, match="integers"):
                t.insert_many(np.array([1, 7]), bad)
            with pytest.raises(ConfigurationError, match="integers"):
                t.delete_many(bad, np.array([2, 3]))
        assert t.is_empty
        t.insert_many([], [])  # an empty batch of any dtype passes
        t.insert_many(np.array([], dtype=bool), np.array([], dtype=float))
        t.insert_many(np.array([1], dtype=np.uint8), np.array([2], dtype=np.int16))
        assert t.get(1) == 2

    def test_scalar_face_rejects_non_integers(self):
        """The scalar face used to truncate 1.5 onto key 1 (and 2.7 onto 2)."""
        t = IBLT(256, 3, seed=1)
        for bad_call in (
            lambda: t.insert(1.5, 2.7),
            lambda: t.insert(1, 2.7),
            lambda: t.insert(True, 1),
            lambda: t.delete(1.5, 2),
            lambda: t.get(1.5),
            lambda: t.cells(1.5),
        ):
            with pytest.raises(ConfigurationError, match="integers"):
                bad_call()
        assert t.is_empty
        t.insert(1, 2)
        assert t.get(1) == 2
        assert t.get(np.int64(1)) == 2


class TestWidthNegotiation:
    def test_small_capacity_gets_int32_counts(self):
        t = IBLT(64, 3, seed=19, capacity=1000)
        assert t.count.dtype == np.int32

    def test_huge_capacity_gets_int64_counts(self):
        t = IBLT(64, 3, seed=20, capacity=(1 << 40))
        assert t.count.dtype == np.int64

    def test_overwide_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            IBLT(64, 3, seed=21, key_bits=64)


# ---------------------------------------------------------------------------
# Independent oracle: cell state from the scalar hashes, one key at a time
# ---------------------------------------------------------------------------


def _oracle_cells(table: IBLT, key: int) -> list[int]:
    """The documented cell progression from the scalar tabulation hashes.

    Double mode: ``(f + i·g) mod m`` with the stride made a unit — odd for
    power-of-two ``m``, 0 → 1 otherwise.  Random mode: ``d`` independent
    hashes.
    """
    m = table.m
    if table.mode == "random":
        return [h.scalar(key) for h in table._hashes]
    f, g = table._h1.scalar(key), table._h2.scalar(key)
    if m & (m - 1) == 0:
        g |= 1
    elif g == 0:
        g = 1
    return [(f + i * g) % m for i in range(table.d)]


class _OracleCells:
    """Pure-Python cell state: four lists of ints, one key at a time."""

    def __init__(self, table: IBLT) -> None:
        self.table = table
        self.count = [0] * table.m
        self.key_sum = [0] * table.m
        self.check_sum = [0] * table.m
        self.value_sum = [0] * table.m

    def apply(self, keys, values, signs) -> None:
        signs = np.broadcast_to(signs, keys.shape).tolist()
        for key, value, sign in zip(keys.tolist(), values.tolist(), signs):
            check = self.table._check.scalar(key)
            for c in set(_oracle_cells(self.table, key)):
                self.count[c] += sign
                self.key_sum[c] ^= key
                self.check_sum[c] ^= check
                self.value_sum[c] ^= value

    def subtract(self, other: _OracleCells) -> _OracleCells:
        diff = _OracleCells(self.table)
        diff.count = [a - b for a, b in zip(self.count, other.count)]
        for name in ("key_sum", "check_sum", "value_sum"):
            setattr(diff, name, [
                a ^ b for a, b in zip(getattr(self, name), getattr(other, name))
            ])
        return diff

    def assert_matches(self, table: IBLT) -> None:
        for name in ("count", "key_sum", "check_sum", "value_sum"):
            assert getattr(table, name).tolist() == getattr(self, name), name


def _keys_with_repeated_cells(table: IBLT, limit: int = 1 << 16) -> np.ndarray:
    """Up to 8 keys in ``[0, limit)`` whose cell rows repeat a cell."""
    rows = np.sort(table.cells_batch(np.arange(limit)), axis=1)
    repeated = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    return np.flatnonzero(repeated)[:8].astype(np.int64)


class TestOracleCellState:
    """Batched updates and the batched lister against :class:`_OracleCells`.

    ``m`` covers a power of two, two primes and two composites that are
    not powers of two; on the composites a double-mode stride can share
    a factor with ``m`` (3072 = 2^10·3 with g = 1536; 4100 = 2^2·5^2·41
    with g = 2050), so a key's row repeats a cell for ``d ≥ 3``.
    """

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("mode", ["double", "random"])
    @pytest.mark.parametrize("m", [256, 97, 4099, 3072, 4100])
    def test_cell_state_matches_oracle(self, m, mode, d):
        seed = 10 * m + d
        rng = np.random.default_rng(seed)
        ta = IBLT(m, d, mode=mode, seed=seed)
        tb = IBLT(m, d, mode=mode, seed=seed)
        oa, ob = _OracleCells(ta), _OracleCells(tb)

        def draw(n):
            return rng.integers(0, 1 << 62, n, dtype=np.int64)

        shared = np.concatenate([draw(200), _keys_with_repeated_cells(ta)])
        shared = np.concatenate([shared, shared[:30]])  # duplicates in a batch
        n_delta = max(4, min(m // 16, 64))
        a_only, b_only = draw(n_delta // 2), draw(n_delta - n_delta // 2)
        batch_a = np.concatenate([shared, a_only])
        batch_b = np.concatenate([b_only, shared])
        vals_a, vals_b = draw(batch_a.size), draw(batch_b.size)
        vals_b[b_only.size:] = vals_a[: shared.size]

        rows = [_oracle_cells(ta, key) for key in batch_a.tolist()]
        assert ta.cells_batch(batch_a).tolist() == rows
        repeats_possible = mode == "random" or (
            d >= 3 and m & (m - 1) != 0 and not is_prime(m)
        )
        assert any(len(set(r)) < d for r in rows) == repeats_possible

        ta.insert_many(batch_a, vals_a)
        oa.apply(batch_a, vals_a, 1)
        oa.assert_matches(ta)
        tb.insert_many(batch_b, vals_b)
        ob.apply(batch_b, vals_b, 1)
        ob.assert_matches(tb)

        # Deletes, including a never-inserted key, on both sides.
        dels = np.concatenate([shared[:40], draw(1)])
        dvals = np.concatenate([vals_a[:40], draw(1)])
        for t, o in ((ta, oa), (tb, ob)):
            t.delete_many(dels, dvals)
            o.apply(dels, dvals, -1)
            o.assert_matches(t)

        diff, od = ta.subtract(tb), oa.subtract(ob)
        od.assert_matches(diff)
        listing = diff.list_entries_batched()
        assert listing.keys.size > 0
        od.apply(listing.keys, listing.values, -listing.signs)
        od.assert_matches(diff)
