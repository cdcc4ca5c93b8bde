"""Tests for the sharded router: dispatch, determinism, merge algebra."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics import MetricsRegistry
from repro.service import ShardedRouter


def fresh_router(**kwargs):
    kwargs.setdefault("n_shards", 4)
    kwargs.setdefault("scheme", "double")
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("metrics", MetricsRegistry())
    return ShardedRouter(1 << 10, 2, **kwargs)


class TestDispatch:
    def test_order_preserved_across_shards(self):
        router = fresh_router()
        keys = np.arange(1, 4001, dtype=np.int64)
        bins = router.insert_many(keys)
        # Lookup in a shuffled order must return each key's own bin.
        perm = np.random.default_rng(0).permutation(keys.size)
        assert (router.lookup_many(keys[perm]) == bins[perm]).all()

    def test_aggregates_sum_over_shards(self):
        router = fresh_router()
        keys = np.arange(1, 4001, dtype=np.int64)
        router.insert_many(keys)
        assert router.size == 4000
        assert router.loads.sum() == 4000
        assert router.counters["inserts"] == 4000
        assert sum(s.size for s in router.shards) == 4000

    def test_single_shard_short_circuits(self):
        router = fresh_router(n_shards=1)
        keys = np.arange(1, 101, dtype=np.int64)
        bins = router.insert_many(keys)
        assert (router.shards[0].lookup_many(keys) == bins).all()

    def test_shard_routing_is_deterministic(self):
        a = fresh_router(seed=5)
        b = fresh_router(seed=5)
        keys = np.arange(1, 1001, dtype=np.int64)
        assert (a.shard_of(keys) == b.shard_of(keys)).all()
        assert (a.insert_many(keys) == b.insert_many(keys)).all()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fresh_router(n_shards=3)
        with pytest.raises(ConfigurationError):
            fresh_router(n_shards=0)


class TestMergeAlgebra:
    def test_shard_merge_is_associative(self):
        router = fresh_router()
        router.insert_many(np.arange(1, 5001, dtype=np.int64))
        s0, s1, s2, s3 = router.shards
        left = ((s0.merge(s1)).merge(s2)).merge(s3)
        right = s0.merge(s1.merge(s2.merge(s3)))
        assert (left.loads == right.loads).all()
        assert left.size == right.size == router.size
        keys = np.arange(1, 5001, dtype=np.int64)
        assert (left.lookup_many(keys) == right.lookup_many(keys)).all()

    def test_merged_equals_cluster_view(self):
        router = fresh_router()
        keys = np.arange(1, 3001, dtype=np.int64)
        bins = router.insert_many(keys)
        merged = router.merged()
        assert merged.size == router.size
        assert (merged.loads == router.loads).all()
        assert (merged.lookup_many(keys) == bins).all()

    def test_merge_survives_churn(self):
        router = fresh_router()
        keys = np.arange(1, 4001, dtype=np.int64)
        router.insert_many(keys)
        router.delete_many(keys[::3])
        merged = router.merged()
        assert merged.size == router.size
        assert (merged.loads == router.loads).all()
        assert merged.loads.sum() == merged.size


class TestSLO:
    def test_cluster_slo_sample(self):
        reg = MetricsRegistry()
        router = fresh_router(metrics=reg)
        router.insert_many(np.arange(1, 2001, dtype=np.int64))
        sample = router.record_slo()
        assert sample["size"] == 2000
        assert reg.get_series("service.slo")[-1]["size"] == 2000

    def test_per_shard_series_are_namespaced(self):
        reg = MetricsRegistry()
        router = fresh_router(metrics=reg)
        router.insert_many(np.arange(1, 2001, dtype=np.int64))
        for shard in router.shards:
            shard.record_slo()
        snap = reg.snapshot()
        assert sorted(k for k in snap["series"] if ".shard" in k) == [
            f"service.slo.shard{i}" for i in range(router.n_shards)
        ]
        for i, shard in enumerate(router.shards):
            assert snap["series"][f"service.slo.shard{i}"][-1]["size"] == shard.size
        assert "service.slo" not in snap["series"]  # no cluster sample taken


class TestMergeUnderChurn:
    def test_merged_after_mixed_reinsert_and_delete_miss_churn(self):
        router = fresh_router()
        rng = np.random.default_rng(31)
        live_bins = {}
        for _ in range(5):
            ins = rng.integers(0, 3000, size=600)
            bins = router.insert_many(ins)
            for k, b in zip(ins.tolist(), bins.tolist()):
                live_bins.setdefault(k, b)  # reinserts keep the old bin
            dels = rng.integers(0, 4000, size=250)  # some misses
            router.delete_many(dels)
            for k in dels.tolist():
                live_bins.pop(k, None)
        merged = router.merged()
        assert merged.size == router.size == len(live_bins)
        assert (merged.loads == router.loads).all()
        probe = np.fromiter(live_bins.keys(), dtype=np.int64)
        want = np.fromiter(live_bins.values(), dtype=np.int64)
        assert (merged.lookup_many(probe) == want).all()
        assert (router.lookup_many(probe) == want).all()
        assert router.counters["reinserts"] > 0
        assert router.counters["delete_misses"] > 0

    def test_merge_rejects_fingerprint_mismatch_after_churn(self):
        a = fresh_router(seed=1, n_shards=1).shards[0]
        b = fresh_router(seed=2, n_shards=1).shards[0]
        a.insert_many(np.arange(1, 101, dtype=np.int64))
        b.insert_many(np.arange(200, 301, dtype=np.int64))
        a.delete_many([1000])  # delete-miss churn on both sides
        b.delete_many(np.arange(200, 210, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_backend_threads_through_router(self):
        router = fresh_router(backend="numpy", expected_keys=4000)
        assert router.backend == "numpy"
        assert all(s.backend == "numpy" for s in router.shards)
        ref = fresh_router(backend="reference")
        keys = np.arange(1, 2001, dtype=np.int64)
        assert (router.insert_many(keys) == ref.insert_many(keys)).all()
