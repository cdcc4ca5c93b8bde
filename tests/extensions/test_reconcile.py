"""Tests for the two-party set-reconciliation driver."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.extensions.iblt import IBLT
from repro.extensions.reconcile import (
    default_cells,
    make_parties,
    reconcile,
    run_reconciliation,
)


class TestMakeParties:
    def test_shapes_and_split(self):
        keys_a, keys_b, a_only, b_only = make_parties(1000, 7, seed=1)
        assert keys_a.size == 1000
        assert keys_b.size == 999  # odd delta: equal sizes are impossible
        assert a_only.size == 4 and b_only.size == 3  # A gets the larger half
        keys_a, keys_b, _, _ = make_parties(1000, 8, seed=1)
        assert keys_a.size == keys_b.size == 1000

    def test_planted_delta_is_the_symmetric_difference(self):
        keys_a, keys_b, a_only, b_only = make_parties(500, 10, seed=2)
        sa, sb = set(keys_a.tolist()), set(keys_b.tolist())
        assert sa - sb == set(a_only.tolist())
        assert sb - sa == set(b_only.tolist())
        assert len(sa) == len(sb) == 500  # all keys distinct

    def test_zero_delta(self):
        keys_a, keys_b, a_only, b_only = make_parties(100, 0, seed=3)
        assert np.array_equal(np.sort(keys_a), np.sort(keys_b))
        assert a_only.size == b_only.size == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_parties(0, 0)
        with pytest.raises(ConfigurationError):
            make_parties(3, 100)

    @pytest.mark.parametrize(
        "n_items,n_diff,match",
        [
            (1e3, 10, "n_items must be an integer"),
            (1000, 10.0, "n_diff must be an integer"),
            ("1000", 10, "n_items must be an integer"),
            (True, 0, "n_items must be an integer"),
            (10, -3, "n_diff must be non-negative"),
        ],
    )
    def test_counts_fail_loudly(self, n_items, n_diff, match):
        # A negative delta must not shrink a party silently, and a float
        # count must not reach numpy.
        with pytest.raises(ConfigurationError, match=f"^{match}"):
            make_parties(n_items, n_diff, seed=1)

    def test_numpy_integer_counts_are_counts(self):
        got = make_parties(np.int64(1000), np.int32(7), seed=2)
        want = make_parties(1000, 7, seed=2)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    # SHA-256 of the four arrays, recorded when party keys were deduped
    # with np.unique: the stream may not move with the dedupe.
    GOLDEN = {
        (100_000, 1000, 1): (
            "ff5e5d8f47152741d51887a732a3efb22a580a93f75dd7253f6eb2ac13cd3890",
            "a81b9d38fa78978f9a28dcbddaeb9599a8c6448a63f8e7857862098668045e73",
            "8c634e72e58508068c70c750aa123e24a0249d7af31c49cefd4dcd947083065d",
            "9b57db1d1ba3572ce3b1d1309627cb597c7b5503ff7401075fe90f031b7e9b0c",
        ),
        (1000, 7, 2): (
            "cb1460f09fa9bdb195af010ac9db631e0485505219b4e78d19be568982cffdd4",
            "3f7e089c916ccc6a1d21de2c8f7c85116b165923f3a3c8f68395d541e299a4cb",
            "71d31de18aba21e2e4da46411af16f9ccba64aeb7065d0e9d3acba344fb69382",
            "0b2fbf29bef479c921e17ef143a9d868acc292e8ec9ed847162b705746b3ff93",
        ),
        (64, 0, 3): (
            "1de862eeba03d901186568206ee91fa6f7ddbf4697ac9976cce305a875b7bb52",
            "1de862eeba03d901186568206ee91fa6f7ddbf4697ac9976cce305a875b7bb52",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
    }

    @pytest.mark.parametrize("geometry", sorted(GOLDEN), ids=str)
    def test_golden_streams(self, geometry):
        n_items, n_diff, seed = geometry
        arrays = make_parties(n_items, n_diff, seed=seed)
        assert all(a.dtype == np.int64 for a in arrays)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
        assert digests == self.GOLDEN[geometry]

    def test_never_calls_numpy_unique(self, monkeypatch):
        want = make_parties(1000, 7, seed=2)
        monkeypatch.setattr(np, "unique", _refuse)
        got = make_parties(1000, 7, seed=2)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_top_up_redraws_repeated_keys(self, monkeypatch):
        # The first draw repeats keys, so the top-up loop must redraw.
        # Its result is what np.unique plus the same redraws gives.
        n_items, n_diff = 50, 6
        rng = _RepeatingDraw(11)
        want = n_items + n_diff // 2
        keys = np.unique(rng.integers(0, 1 << 62, size=want, dtype=np.int64))
        assert keys.size < want
        while keys.size < want:
            extra = rng.integers(0, 1 << 62, size=want - keys.size,
                                 dtype=np.int64)
            keys = np.unique(np.concatenate([keys, extra]))
        keys = rng.permutation(keys)
        shared = keys[: n_items - n_diff // 2]

        monkeypatch.setattr(np, "unique", _refuse)
        keys_a, keys_b, a_only, b_only = make_parties(
            n_items, n_diff, seed=_RepeatingDraw(11)
        )
        assert len(set(keys_a.tolist())) == len(set(keys_b.tolist())) == n_items
        assert np.array_equal(keys_a[: shared.size], shared)
        assert np.array_equal(keys_b[: shared.size], shared)
        assert np.array_equal(a_only, np.sort(keys[shared.size:n_items]))
        assert np.array_equal(b_only, np.sort(keys[n_items:]))


def _refuse(*args, **kwargs):
    raise AssertionError("numpy.unique called on a hot path")


class _RepeatingDraw(np.random.Generator):
    """A PCG64 generator whose first ``integers`` draw repeats each key
    four times over its first half."""

    def __init__(self, seed: int) -> None:
        super().__init__(np.random.PCG64(seed))
        self.draws = 0

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        self.draws += 1
        if self.draws == 1:
            half = out.size // 2
            out[:half] = np.repeat(out[: (half + 3) // 4], 4)[:half]
        return out


class TestDefaultCells:
    def test_power_of_two_and_floor(self):
        assert default_cells(0, 3) == 64
        cells = default_cells(1000, 3)
        assert cells & (cells - 1) == 0
        # Must exceed the density-evolution minimum |delta| / c*_3.
        assert cells > 1000 / 0.8185

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            default_cells(-1, 3)


class TestReconcile:
    @pytest.mark.parametrize("mode", ["double", "random"])
    def test_round_trip_recovers_planted_delta(self, mode):
        res = run_reconciliation(5000, 40, mode=mode, seed=4)
        assert res.success
        assert res.missed == 0 and res.spurious == 0
        assert res.residue_cells == 0
        assert res.only_in_a.size == 20 and res.only_in_b.size == 20
        assert res.mode == mode

    def test_recovered_keys_match_planted(self):
        _, _, a_only, b_only = make_parties(5000, 40, seed=4)
        res = run_reconciliation(5000, 40, seed=4)
        assert np.array_equal(res.only_in_a, a_only)
        assert np.array_equal(res.only_in_b, b_only)

    def test_deterministic_under_seed(self):
        r1 = run_reconciliation(2000, 16, seed=5)
        r2 = run_reconciliation(2000, 16, seed=5)
        assert np.array_equal(r1.only_in_a, r2.only_in_a)
        assert np.array_equal(r1.only_in_b, r2.only_in_b)
        assert r1.rounds == r2.rounds

    def test_table_sized_by_delta_not_set_size(self):
        res = run_reconciliation(20000, 10, seed=6)
        assert res.success
        assert res.cells == default_cells(10, 3)
        assert res.cells < 200  # tiny table despite 20k items

    def test_undersized_table_reports_failure(self):
        # Far above threshold: the delta's hypergraph keeps a giant core.
        res = run_reconciliation(2000, 500, cells=64, seed=7)
        assert not res.success
        assert res.missed > 0
        assert res.residue_cells > 0

    def test_reconcile_preserves_inputs(self):
        ta = IBLT(256, 3, seed=8)
        tb = IBLT(256, 3, seed=8)
        ta.insert_many(np.arange(50), np.arange(50))
        tb.insert_many(np.arange(10, 60), np.arange(10, 60))
        before_a, before_b = ta.count.copy(), tb.count.copy()
        only_a, only_b, residue, rounds = reconcile(ta, tb)
        assert np.array_equal(ta.count, before_a)
        assert np.array_equal(tb.count, before_b)
        assert residue == 0 and rounds >= 1
        assert np.array_equal(only_a, np.arange(10))
        assert np.array_equal(only_b, np.arange(50, 60))

    def test_throughput_properties(self):
        res = run_reconciliation(1000, 8, seed=9)
        assert res.items_per_second > 0
        assert res.delta_per_second > 0
