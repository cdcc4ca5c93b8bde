"""Assignment-map equivalence: the numpy kernel vs the dict oracle.

The keymap contract pins every observable — the per-key return array of
``insert_many`` (set-default), ``delete_many``, and ``lookup_many``, and
the final live ``(key, value)`` mapping — so the kernel must agree
*exactly* with :class:`~repro.kernels.keymap.ReferenceKeyMap` on any
stream, including intra-batch duplicate keys, reinserts of deleted keys,
delete misses, and rehash-triggering growth.  Structured golden streams
pin the tricky orderings; hypothesis streams sweep the rest.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hashing.probe import (
    probe_start_stride,
    probe_start_stride_scalar,
    splitmix64,
    splitmix64_scalar,
)
from repro.kernels.keymap import (
    EMPTY,
    KNOWN_KEYMAP_BACKENDS,
    MIN_CAP_BITS,
    NOT_FOUND,
    TOMBSTONE,
    KeyMap,
    ReferenceKeyMap,
    make_keymap,
    resolve_keymap_backend,
)
from repro.metrics import MetricsRegistry

#: Kernel backends (the oracle is the comparison baseline).
KERNEL_BACKENDS = tuple(b for b in KNOWN_KEYMAP_BACKENDS if b != "reference")


def _apply_stream(backend, stream):
    """Run an op stream on a fresh map; return per-op outputs + final state."""
    m = make_keymap(backend=backend, metrics=MetricsRegistry())
    outputs = []
    for op, *args in stream:
        if op == "insert":
            keys, vals = args
            outputs.append(m.insert_many(keys, vals))
        elif op == "delete":
            outputs.append(m.delete_many(args[0]))
        else:
            outputs.append(m.lookup_many(args[0]))
    keys, vals = m.items()
    order = np.argsort(keys, kind="stable")
    return outputs, keys[order], vals[order], m


def _assert_stream_equal(stream):
    ref_out, ref_keys, ref_vals, _ = _apply_stream("reference", stream)
    for backend in KERNEL_BACKENDS:
        out, keys, vals, m = _apply_stream(backend, stream)
        assert len(out) == len(ref_out)
        for i, (got, want) in enumerate(zip(out, ref_out)):
            assert got.dtype == np.int64, f"{backend}: op {i} dtype"
            assert np.array_equal(got, want), (
                f"{backend}: op {i} ({stream[i][0]}) mismatch\n"
                f"got  {got}\nwant {want}"
            )
        assert np.array_equal(keys, ref_keys), f"{backend}: final keys"
        assert np.array_equal(vals, ref_vals), f"{backend}: final values"
        assert m.size == ref_keys.size, f"{backend}: size"
        # Slot states recounted from the value array: a claim that left a
        # batch index behind in a losing or tombstoned slot shows up as
        # an extra live slot here.
        tvals = m._vals
        assert np.count_nonzero(tvals >= 0) == m.size, f"{backend}: live"
        assert np.count_nonzero(tvals == TOMBSTONE) == m.tombstones, (
            f"{backend}: tombstones"
        )
        assert (
            (tvals == EMPTY) | (tvals == TOMBSTONE) | (tvals >= 0)
        ).all(), f"{backend}: slot values"


class TestGoldenStreams:
    """Structured streams pinning the orderings that broke drafts."""

    def test_duplicate_keys_first_occurrence_wins(self):
        # Set-default: the FIRST occurrence of a duplicate key in a batch
        # stores its value; later occurrences see it as the prior.
        _assert_stream_equal([
            ("insert", [7, 7, 7, 3, 3], [10, 20, 30, 40, 50]),
            ("lookup", [7, 3]),
        ])

    def test_duplicate_deletes_first_occurrence_pops(self):
        _assert_stream_equal([
            ("insert", [1, 2, 3], [11, 22, 33]),
            ("delete", [2, 2, 9, 2]),
            ("lookup", [1, 2, 3]),
        ])

    def test_reinsert_after_delete_within_stream(self):
        _assert_stream_equal([
            ("insert", [5, 6], [1, 2]),
            ("delete", [5]),
            ("insert", [5, 6], [100, 200]),  # 5 fresh again, 6 reinsert
            ("lookup", [5, 6]),
        ])

    def test_delete_then_insert_same_batch_keys_interleaved(self):
        _assert_stream_equal([
            ("insert", list(range(64)), list(range(64))),
            ("delete", [0, 1, 2, 3]),
            ("insert", [2, 3, 2, 64, 0], [9, 9, 8, 7, 6]),
            ("delete", [64, 64, 1]),
            ("lookup", list(range(66))),
        ])

    def test_negative_and_extreme_keys(self):
        keys = [-1, -(1 << 62), (1 << 62), 0, -1]
        _assert_stream_equal([
            ("insert", keys, [1, 2, 3, 4, 5]),
            ("lookup", keys),
            ("delete", [-1, (1 << 62)]),
            ("lookup", keys),
        ])

    def test_growth_stream_forces_rehash(self):
        # 400 keys from a 64-slot start forces several rehashes; deletes
        # in between leave tombstones for the rehash to purge.
        rng = np.random.default_rng(11)
        ops = []
        for step in range(8):
            keys = rng.integers(0, 1000, size=50)
            ops.append(("insert", keys, np.arange(50)))
            ops.append(("delete", rng.integers(0, 1000, size=20)))
        ops.append(("lookup", np.arange(1000)))
        _assert_stream_equal(ops)

    def test_general_path_at_high_fill(self):
        # Drives the insert kernel into a populated table near 60% fill,
        # over tombstones, with reinserts and intra-batch duplicates, so
        # claims contend across several probe rounds.  The setup checks
        # below keep the stream doing that if the capacity policy moves.
        rng = np.random.default_rng(2024)
        first = rng.permutation(1 << 20)[:256]
        victims = first[:64]
        batch = np.concatenate([
            rng.integers(1 << 20, 1 << 21, size=330),  # fresh keys
            first[64:104],  # reinserts of live keys
            victims[:20],  # reinserts of deleted keys
            rng.choice(first[100:200], size=20),  # more live duplicates
        ])
        batch = np.concatenate([batch, rng.choice(batch, size=10)])
        rng.shuffle(batch)
        stream = [
            ("insert", first, rng.integers(0, 1 << 30, size=first.size)),
            ("delete", victims),
            ("insert", batch, rng.integers(0, 1 << 30, size=batch.size)),
            ("delete", np.concatenate([batch[:50], batch[:10]])),
            ("lookup", np.concatenate([first, batch])),
        ]
        _assert_stream_equal(stream)

        reg = MetricsRegistry()
        m = KeyMap(backend="numpy", metrics=reg)
        m.insert_many(*stream[0][1:])
        m.delete_many(stream[1][1])
        rounds_before = reg.get_counter("keymap.probe_rounds")
        cap = m.capacity
        m.insert_many(*stream[2][1:])
        assert m.capacity == cap and reg.get_counter("keymap.rehashes") == 1
        assert m.tombstones > 0
        assert (m.size + m.tombstones) / cap >= 0.55
        assert reg.get_counter("keymap.probe_rounds") - rounds_before >= 3


@st.composite
def op_streams(draw):
    """Mixed op streams over a small universe: heavy key collisions."""
    universe = draw(st.sampled_from([8, 40, 600, 100_000]))
    n_ops = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(n_ops):
        kind = rng.integers(0, 3)
        size = int(rng.integers(0, 120))
        keys = rng.integers(-universe, universe, size=size)
        if kind == 0:
            stream.append(("insert", keys, rng.integers(0, 1 << 30, size)))
        elif kind == 1:
            stream.append(("delete", keys))
        else:
            stream.append(("lookup", keys))
    return stream


class TestHypothesisStreams:
    @settings(max_examples=60, deadline=None)
    @given(op_streams())
    def test_all_backends_match_oracle(self, stream):
        _assert_stream_equal(stream)


class TestNumpySemanticsCanary:
    def test_fancy_assignment_last_write_wins(self):
        # The reversed-scatter claim protocol in the numpy kernel depends
        # on fancy assignment storing the LAST value written to a
        # repeated index (NumPy indexing guide: "the last value... is
        # assigned").  If this ever changes, the kernel's duplicate-key
        # handling breaks — fail loudly here, not in a workload.  The
        # placement kernel's stamp scatter relies on it too, with intp
        # indices into an int32 table; 20,000 indices outrun numpy's
        # 8,192-element cast buffer, and int32 indices take the cast.
        for index, size, target in itertools.product(
            ("intp", "int32"), (3, 20_000), ("int64", "int32")
        ):
            arr = np.zeros(4, dtype=target)
            arr[np.full(size, 2, dtype=index)] = np.arange(size, dtype=target)
            assert arr[2] == size - 1, (index, size, target)


class TestProbeHash:
    def test_splitmix64_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        xs = rng.integers(0, 1 << 63, size=257, dtype=np.int64).view(np.uint64)
        vec = splitmix64(xs.copy())
        for x, got in zip(xs.tolist(), vec.tolist()):
            assert got == splitmix64_scalar(x)

    @pytest.mark.parametrize("cap_bits", [1, 6, 17, 31])
    def test_start_stride_matches_scalar_oracle(self, cap_bits):
        rng = np.random.default_rng(cap_bits)
        keys = rng.integers(-(1 << 62), 1 << 62, size=3 * 2**15 + 7)
        start, stride = probe_start_stride(keys, cap_bits)
        assert start.dtype == np.int32 and stride.dtype == np.int32
        for i in [0, 1, 2**15 - 1, 2**15, keys.size - 1]:
            s, t = probe_start_stride_scalar(int(keys[i]), cap_bits)
            assert (int(start[i]), int(stride[i])) == (s, t)
        assert (stride % 2 == 1).all()
        assert (start >= 0).all() and (start < (1 << cap_bits)).all()

    def test_probe_seed_changes_layout_not_results(self):
        keys = np.arange(1000)
        vals = np.arange(1000) % 97
        a = KeyMap(backend="numpy", metrics=MetricsRegistry())
        b = KeyMap(
            backend="numpy", metrics=MetricsRegistry(), probe_seed=12345
        )
        a.insert_many(keys, vals)
        b.insert_many(keys, vals)
        assert np.array_equal(a.lookup_many(keys), b.lookup_many(keys))

    def test_cap_bits_validation(self):
        with pytest.raises(ConfigurationError):
            probe_start_stride(np.arange(4), 0)
        with pytest.raises(ConfigurationError):
            probe_start_stride_scalar(1, 32)


class TestCapacityManagement:
    def test_grows_and_purges_tombstones(self):
        m = KeyMap(backend="numpy", metrics=MetricsRegistry())
        assert m.capacity == 1 << MIN_CAP_BITS
        m.insert_many(np.arange(100), np.arange(100))
        m.delete_many(np.arange(50))
        assert m.tombstones == 50
        cap_before = m.capacity
        # A large batch forces a rehash, purging tombstones.
        m.insert_many(np.arange(1000, 2000), np.arange(1000))
        assert m.capacity > cap_before
        assert m.tombstones == 0
        assert m.size == 1050

    def test_presize_avoids_growth(self):
        reg = MetricsRegistry()
        m = KeyMap(expected=10_000, backend="numpy", metrics=reg)
        cap = m.capacity
        m.insert_many(np.arange(10_000), np.zeros(10_000, dtype=np.int64))
        assert m.capacity == cap
        assert reg.get_counter("keymap.rehashes") == 0
        # int64 key + int32 value per slot; claims need no scratch array.
        assert m.nbytes == 12 * cap

    def test_tombstones_are_never_reused(self):
        # Deleting and reinserting different keys must not resurrect
        # tombstoned slots (no-reuse keeps all backends in lockstep).
        m = KeyMap(backend="numpy", metrics=MetricsRegistry())
        m.insert_many(np.arange(20), np.arange(20))
        m.delete_many(np.arange(10))
        m.insert_many(np.arange(100, 110), np.arange(10))
        assert m.tombstones == 10
        assert m.size == 20


class TestValidation:
    def test_empty_batches(self):
        for backend in ("reference",) + KERNEL_BACKENDS:
            m = make_keymap(backend=backend, metrics=MetricsRegistry())
            empty = np.empty(0, dtype=np.int64)
            for out in (
                m.insert_many(empty, empty),
                m.delete_many(empty),
                m.lookup_many(empty),
            ):
                assert out.size == 0 and out.dtype == np.int64

    def test_rejects_bad_keys_and_values(self):
        m = KeyMap(backend="numpy", metrics=MetricsRegistry())
        with pytest.raises(ConfigurationError):
            m.insert_many(np.zeros((2, 2)), np.zeros(4))
        with pytest.raises(ConfigurationError):
            m.insert_many([1, 2], [0])  # shape mismatch
        with pytest.raises(ConfigurationError):
            m.insert_many([1], [-5])  # negative value = sentinel space
        with pytest.raises(ConfigurationError):
            m.insert_many([1], [1 << 40])  # over 31-bit ceiling
        # Non-integer keys and values raise instead of truncating (1.5
        # and 1.0 used to collapse onto key 1, and 2.7 was stored as 2),
        # on the oracle as well as the kernel.
        bad_keys = (
            np.array([1.5, 1.0]),
            np.array([1 + 0j, 2 + 0j]),
            np.array([True, False]),
            np.array([1, 2], dtype=object),
        )
        for backend in ("reference",) + KERNEL_BACKENDS:
            m = make_keymap(backend=backend, metrics=MetricsRegistry())
            for keys in bad_keys:
                for call in (
                    lambda: m.insert_many(keys, [0, 1]),
                    lambda: m.delete_many(keys),
                    lambda: m.lookup_many(keys),
                ):
                    with pytest.raises(ConfigurationError, match="integers"):
                        call()
            for vals in ([2.7], [True]):
                with pytest.raises(ConfigurationError, match="integers"):
                    m.insert_many([1], vals)
            assert m.size == 0
            # Empty batches of any dtype still pass ([] is float64), and
            # integer dtypes other than int64 convert.
            assert m.insert_many([], []).size == 0
            assert m.lookup_many([]).size == 0
            keys = np.array([3, 4], dtype=np.uint8)
            m.insert_many(keys, np.array([5, 6], dtype=np.int16))
            assert m.lookup_many(keys).tolist() == [5, 6]

    def test_keymap_rejects_reference_backend(self):
        with pytest.raises(ConfigurationError):
            KeyMap(backend="reference")


class TestRegistry:
    def test_known_and_available(self):
        assert KNOWN_KEYMAP_BACKENDS == ("reference", "numpy")

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert resolve_keymap_backend("numpy") == "numpy"
        assert resolve_keymap_backend(None) == "reference"

    def test_unknown_name_raises(self):
        for name in ("cupy", "numba", "numba-parallel"):
            with pytest.raises(ConfigurationError):
                resolve_keymap_backend(name)

    def test_numba_request_fails_loudly(self):
        # The former numba tiers raise on both constructor paths, with no
        # silent downgrade to numpy and nothing logged.
        reg = MetricsRegistry()
        for name in ("numba", "numba-parallel"):
            with pytest.raises(ConfigurationError, match="unknown kernel backend"):
                make_keymap(backend=name, metrics=reg)
            with pytest.raises(ConfigurationError, match="unknown kernel backend"):
                KeyMap(backend=name, metrics=reg)
        assert reg.events == []

    def test_make_keymap_routes_reference(self):
        m = make_keymap(backend="reference", metrics=MetricsRegistry())
        assert isinstance(m, ReferenceKeyMap)
        assert m.backend == "reference"


class TestMetrics:
    def test_probe_counters_accumulate(self):
        reg = MetricsRegistry()
        m = KeyMap(backend="numpy", metrics=reg)
        m.insert_many(np.arange(100), np.arange(100))
        m.lookup_many(np.arange(150))
        assert reg.get_counter("keymap.probes") >= 250
        assert reg.get_counter("keymap.probe_rounds") >= 2
        assert reg.get_counter("keymap.calls.numpy") == 2

    def test_rehash_counters(self):
        reg = MetricsRegistry()
        m = KeyMap(backend="numpy", metrics=reg)
        m.insert_many(np.arange(100), np.zeros(100, dtype=np.int64))
        m.insert_many(np.arange(100, 600), np.zeros(500, dtype=np.int64))
        assert reg.get_counter("keymap.rehashes") >= 2
        assert reg.get_counter("keymap.rehash_slots") >= 100


class TestSentinels:
    def test_not_found_is_minus_one(self):
        assert NOT_FOUND == -1
        m = KeyMap(backend="numpy", metrics=MetricsRegistry())
        assert m.lookup_many([123])[0] == NOT_FOUND
        assert m.delete_many([123])[0] == NOT_FOUND
        assert m.insert_many([123], [0])[0] == NOT_FOUND
