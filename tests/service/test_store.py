"""Tests for the keyed store: invariants, determinism, SLO, merge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hashing import make_keyed_scheme
from repro.metrics import MetricsRegistry
from repro.service import (
    KeyedStore,
    ShardedRouter,
    WorkloadSpec,
    generate_stream,
    run_service_workload,
)
from repro.service.store import histogram_quantiles


def fresh_store(**kwargs):
    kwargs.setdefault("scheme", "double")
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("metrics", MetricsRegistry())
    return KeyedStore(1 << 10, 2, **kwargs)


class TestInvariants:
    def test_load_sum_tracks_size(self):
        st = fresh_store()
        keys = np.arange(1, 3001, dtype=np.int64)
        st.insert_many(keys)
        assert st.size == 3000
        assert st.loads.sum() == 3000
        st.delete_many(keys[:1000])
        assert st.size == 2000
        assert st.loads.sum() == 2000
        assert (st.loads >= 0).all()

    def test_lookup_returns_assigned_bins(self):
        st = fresh_store()
        keys = np.arange(1, 501, dtype=np.int64)
        bins = st.insert_many(keys)
        assert (st.lookup_many(keys) == bins).all()
        assert st.lookup_many([10**12])[0] == -1
        assert st.counters["lookup_misses"] == 1

    def test_reinsert_is_idempotent(self):
        st = fresh_store()
        keys = np.arange(1, 501, dtype=np.int64)
        bins = st.insert_many(keys)
        again = st.insert_many(keys[:100])
        assert (again == bins[:100]).all()
        assert st.counters["reinserts"] == 100
        assert st.loads.sum() == 500  # speculative increments rolled back

    def test_delete_missing_policies(self):
        st = fresh_store()
        st.insert_many(np.arange(1, 11, dtype=np.int64))
        out = st.delete_many([999], missing="ignore")
        assert out[0] == -1
        assert st.counters["delete_misses"] == 1
        with pytest.raises(KeyError):
            st.delete_many([999], missing="error")
        assert st.size == 10  # error path left the store untouched
        with pytest.raises(ConfigurationError):
            st.delete_many([1], missing="bogus")

    def test_empty_batches_are_noops(self):
        st = fresh_store()
        assert st.insert_many([]).size == 0
        assert st.delete_many([]).size == 0
        assert st.lookup_many([]).size == 0
        assert st.ops == 0

    def test_non_integer_keys_raise_and_leave_store_untouched(self):
        # 1.5 and 1.0 used to truncate onto one key: two equal bins, one
        # stored key and a phantom reinsert.
        st = fresh_store(seed=1)
        with pytest.raises(ConfigurationError, match="integers"):
            st.insert_many(np.array([1.5, 1.0]))
        assert st.size == 0 and st.ops == 0
        assert st.counters["reinserts"] == 0
        assert st.loads.sum() == 0


class TestDeterminism:
    def test_same_seed_same_placements(self):
        keys = np.arange(1, 5001, dtype=np.int64)
        a = fresh_store(seed=42).insert_many(keys)
        b = fresh_store(seed=42).insert_many(keys)
        assert (a == b).all()

    def test_micro_batch_one_is_sequential(self):
        """micro_batch=1 places strictly sequentially: every key sees all
        earlier placements, so loads within each candidate set differ by
        at most what sequential least-loaded placement allows."""
        keys = np.arange(1, 2049, dtype=np.int64)
        st = fresh_store(seed=3, micro_batch=1)
        st.insert_many(keys)
        assert st.loads.sum() == 2048

    def test_shared_scheme_instance_reproduces(self):
        keyed = make_keyed_scheme("tabulation", 1 << 10, 2, seed=5)
        keys = np.arange(1, 1001, dtype=np.int64)
        a = KeyedStore(1 << 10, 2, scheme=keyed, metrics=MetricsRegistry())
        b = KeyedStore(1 << 10, 2, scheme=keyed, metrics=MetricsRegistry())
        assert (a.insert_many(keys) == b.insert_many(keys)).all()


class TestSLO:
    def test_record_slo_lands_in_metrics_series(self):
        reg = MetricsRegistry()
        st = fresh_store(metrics=reg)
        st.insert_many(np.arange(1, 2001, dtype=np.int64))
        sample = st.record_slo()
        assert sample["size"] == 2000
        snap = reg.snapshot()
        assert "service.slo" in snap["series"]
        recorded = snap["series"]["service.slo"][-1]
        for field in ("ops", "size", "max_load", "p50", "p99", "p999"):
            assert field in recorded
        assert recorded["max_load"] >= recorded["p999"] >= recorded["p99"]

    def test_slo_interval_samples_automatically(self):
        reg = MetricsRegistry()
        st = fresh_store(metrics=reg, slo_interval=500)
        st.insert_many(np.arange(1, 2001, dtype=np.int64))
        assert len(reg.get_series("service.slo")) >= 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fresh_store(micro_batch=0)
        with pytest.raises(ConfigurationError):
            fresh_store(slo_interval=0)
        with pytest.raises(ConfigurationError):
            KeyedStore(
                1 << 10, 2,
                scheme=make_keyed_scheme("double", 512, 2, seed=1),
                metrics=MetricsRegistry(),
            )


class TestMerge:
    def test_merge_combines_disjoint_stores(self):
        keyed = make_keyed_scheme("double", 1 << 10, 2, seed=9)
        a = KeyedStore(1 << 10, 2, scheme=keyed, metrics=MetricsRegistry())
        b = KeyedStore(1 << 10, 2, scheme=keyed, metrics=MetricsRegistry())
        a.insert_many(np.arange(1, 501, dtype=np.int64))
        b.insert_many(np.arange(501, 1001, dtype=np.int64))
        merged = a.merge(b)
        assert merged.size == 1000
        assert (merged.loads == a.loads + b.loads).all()
        assert merged.counters["inserts"] == 1000

    def test_merge_rejects_different_hash_functions(self):
        a = fresh_store(seed=1)
        b = fresh_store(seed=2)
        a.insert_many([1])
        b.insert_many([2])
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_merge_rejects_overlapping_keys(self):
        keyed = make_keyed_scheme("double", 1 << 10, 2, seed=9)
        a = KeyedStore(1 << 10, 2, scheme=keyed, metrics=MetricsRegistry())
        b = KeyedStore(1 << 10, 2, scheme=keyed, metrics=MetricsRegistry())
        a.insert_many([1, 2, 3])
        b.insert_many([3, 4])
        with pytest.raises(ConfigurationError):
            a.merge(b)


class TestKernelBacking:
    """The store's bookkeeping runs on the keymap kernel."""

    def test_backend_is_exposed_and_selectable(self):
        st = fresh_store(backend="numpy")
        assert st.backend == "numpy"
        assert "backend=numpy" in st.describe()
        ref = fresh_store(backend="reference")
        assert ref.backend == "reference"

    def test_reference_and_numpy_stores_agree_exactly(self):
        rng = np.random.default_rng(23)
        ops = []
        for _ in range(6):
            ops.append(("insert", rng.integers(0, 4000, size=800)))
            ops.append(("delete", rng.integers(0, 4000, size=300)))
            ops.append(("lookup", rng.integers(0, 5000, size=500)))
        results = {}
        for backend in ("reference", "numpy"):
            st = fresh_store(seed=4, backend=backend)
            outs = []
            for op, keys in ops:
                if op == "insert":
                    outs.append(st.insert_many(keys))
                elif op == "delete":
                    outs.append(st.delete_many(keys))
                else:
                    outs.append(st.lookup_many(keys))
            results[backend] = (outs, st.loads.copy(), st.counters, st.size)
        ref_outs, ref_loads, ref_counters, ref_size = results["reference"]
        np_outs, np_loads, np_counters, np_size = results["numpy"]
        for got, want in zip(np_outs, ref_outs):
            assert np.array_equal(got, want)
        assert np.array_equal(np_loads, ref_loads)
        assert np_counters == ref_counters
        assert np_size == ref_size

    def test_returns_are_int64_ndarrays(self):
        st = fresh_store()
        keys = np.arange(1, 301, dtype=np.int64)
        bins = st.insert_many(keys)
        for out in (
            bins,
            st.lookup_many(keys),
            st.lookup_many([10**15]),
            st.delete_many(keys[:50]),
            st.delete_many([10**15]),
            st.insert_many(keys[50:60]),  # reinsert path
        ):
            assert isinstance(out, np.ndarray)
            assert out.dtype == np.int64
            assert out.ndim == 1
        assert st.insert_many([]).dtype == np.int64

    def test_assignments_property(self):
        st = fresh_store()
        keys = np.array([900, 5, 17, 4], dtype=np.int64)
        bins = st.insert_many(keys)
        got_keys, got_bins = st.assignments
        assert got_keys.dtype == np.int64 and got_bins.dtype == np.int64
        assert np.array_equal(got_keys, np.sort(keys))
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(got_bins, bins[order])
        st.delete_many([17])
        got_keys, _ = st.assignments
        assert 17 not in got_keys.tolist()

    def test_expected_keys_presizes_map(self):
        reg = MetricsRegistry()
        st = fresh_store(metrics=reg, expected_keys=20_000)
        st.insert_many(np.arange(1, 20_001, dtype=np.int64))
        assert reg.get_counter("keymap.rehashes") == 0
        assert st.size == 20_000


class TestHistogramQuantiles:
    """The SLO quantiles come from a load histogram, equal to np.quantile."""

    def test_matches_np_quantile_exactly(self):
        rng = np.random.default_rng(41)
        fixed = ((0.0,), (1.0,), (0.5, 0.99, 0.999), (0.0, 0.25, 1.0))
        for i in range(1200):
            n = int(rng.integers(1, 5001))
            max_load = int(rng.integers(0, 61))
            loads = rng.integers(0, max_load + 1, size=n)
            qs = fixed[i % len(fixed)] + tuple(rng.random(3))
            want = tuple(float(q) for q in np.quantile(loads, qs))
            assert histogram_quantiles(loads, qs) == want, (n, max_load, qs)

    def test_rejects_out_of_range_quantiles(self):
        for qs in ((1.5,), (-0.1, 0.5)):
            with pytest.raises(ValueError):
                histogram_quantiles(np.arange(10), qs)

    def test_router_and_runner_report_np_quantile(self):
        def np_tails(loads):
            return tuple(float(q) for q in np.quantile(loads, (0.5, 0.99, 0.999)))

        router = ShardedRouter(
            1 << 10, 2, n_shards=4, scheme="double", seed=3,
            metrics=MetricsRegistry(),
        )
        router.insert_many(np.arange(1, 7001, dtype=np.int64))
        sample = router.record_slo()
        assert (sample["p50"], sample["p99"], sample["p999"]) == np_tails(
            router.loads
        )

        spec = WorkloadSpec(n_keys=6000, batch=1024, churn=0.5, lookups=0.25)
        report = run_service_workload(
            spec, n_bins=1 << 10, d=2, scheme="double", seed=5,
            metrics=MetricsRegistry(),
        )
        # Replaying the same stream into the same store rebuilds the
        # report's final loads.
        replay = KeyedStore(
            1 << 10, 2, scheme="double", seed=5,
            expected_keys=spec.n_keys, metrics=MetricsRegistry(),
        )
        for batch in generate_stream(spec, seed=5):
            replay.insert_many(batch.inserts)
            replay.delete_many(batch.deletes)
            replay.lookup_many(batch.lookups)
        assert replay.size == report.size
        assert (report.p50, report.p99, report.p999) == np_tails(replay.loads)
