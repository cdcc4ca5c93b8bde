"""Deterministic sharding of the keyed store, with associative merge.

:class:`ShardedRouter` partitions the key space across ``n_shards``
independent :class:`~repro.service.store.KeyedStore` shards via a
multiply-shift shard hash.  All shards share **one** keyed placement
scheme (the same hash functions), so their states are merge-compatible:
:meth:`ShardedRouter.merged` folds them into a single store, and because
:meth:`KeyedStore.merge` is associative over disjoint key sets, the fold
order does not matter — the property that lets a real deployment combine
per-node states pairwise, tree-wise, or incrementally.

Each shard balances against *its own* load view (the loads of keys routed
to it), which is the distributed model: shards are nodes that do not see
each other's placements.  Batched operations are dispatched with a stable
sort by shard id, so per-shard sub-batches preserve stream order and the
whole router is deterministic given the seed and the input stream.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.hash_functions import MultiplyShiftHash
from repro.hashing.keyed import KeyedChoices, _as_key_array
from repro.hashing.registry import make_keyed_scheme
from repro.metrics import MetricsRegistry, global_registry
from repro.rng import default_generator
from repro.service.store import (
    DEFAULT_MICRO_BATCH,
    SLO_QUANTILES,
    KeyedStore,
    histogram_quantiles,
)

__all__ = ["ShardedRouter"]


class ShardedRouter:
    """A bank of keyed-store shards behind one batched API.

    Parameters
    ----------
    n_bins, d:
        Geometry shared by every shard (loads are per-bin across the
        whole cluster; each shard tracks the slice its keys produced).
    n_shards:
        Number of shards; must be a power of two (the shard hash is
        multiply-shift).
    scheme, seed, rng:
        As in :class:`~repro.service.store.KeyedStore`; the scheme is
        built once here and shared by all shards.
    backend:
        Assignment-map kernel tier forwarded to every shard (see
        :class:`~repro.service.store.KeyedStore`).
    expected_keys:
        Presize hint for the *whole router*; each shard presizes its
        assignment map for ``expected_keys / n_shards`` live keys.
    micro_batch, metrics, series:
        Forwarded to every shard; with more than one shard, shard ``i``
        records its own samples under ``<series>.shard<i>``.
    """

    def __init__(
        self,
        n_bins: int,
        d: int = 2,
        *,
        n_shards: int = 4,
        scheme: str | KeyedChoices | None = None,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        micro_batch: int = DEFAULT_MICRO_BATCH,
        backend: str | None = None,
        expected_keys: int = 0,
        metrics: MetricsRegistry | None = None,
        series: str = "service.slo",
    ) -> None:
        if n_shards < 1 or n_shards & (n_shards - 1):
            raise ConfigurationError(
                f"n_shards must be a positive power of two, got {n_shards}"
            )
        if rng is not None and seed is not None:
            raise ConfigurationError("pass rng or seed, not both")
        gen = rng if rng is not None else default_generator(seed)
        if isinstance(scheme, KeyedChoices):
            if scheme.n_bins != n_bins or scheme.d != d:
                raise ConfigurationError(
                    f"scheme geometry ({scheme.n_bins}, {scheme.d}) does not "
                    f"match router geometry ({n_bins}, {d})"
                )
            self.keyed = scheme
        else:
            self.keyed = make_keyed_scheme(scheme, n_bins, d, rng=gen)
        self.n_bins = int(n_bins)
        self.d = int(d)
        self.n_shards = int(n_shards)
        self.series = series
        self._metrics = metrics if metrics is not None else global_registry()
        self._shard_hash = MultiplyShiftHash(n_shards, gen)
        per_shard = -(-int(expected_keys) // n_shards) if expected_keys else 0
        self.shards = [
            KeyedStore(
                n_bins,
                d,
                scheme=self.keyed,
                micro_batch=micro_batch,
                backend=backend,
                expected_keys=per_shard,
                metrics=self._metrics,
                series=f"{series}.shard{i}" if n_shards > 1 else series,
            )
            for i in range(n_shards)
        ]
        self.backend = self.shards[0].backend

    # -- inspection -------------------------------------------------------

    @property
    def size(self) -> int:
        """Live keys across all shards."""
        return sum(shard.size for shard in self.shards)

    @property
    def ops(self) -> int:
        """Total operations processed across all shards."""
        return sum(shard.ops for shard in self.shards)

    @property
    def loads(self) -> np.ndarray:
        """Cluster-wide per-bin loads (sum over shards)."""
        total = np.zeros(self.n_bins, dtype=np.int64)
        for shard in self.shards:
            total += shard.loads
        return total

    @property
    def counters(self) -> dict[str, int]:
        """Operation counters summed over shards."""
        out: dict[str, int] = {}
        for shard in self.shards:
            for name, value in shard.counters.items():
                out[name] = out.get(name, 0) + value
        return out

    def shard_of(self, keys) -> np.ndarray:
        """Shard index per key (deterministic multiply-shift routing)."""
        keys = _as_key_array(keys)
        if self.n_shards == 1:
            return np.zeros(keys.size, dtype=np.int64)
        return np.asarray(self._shard_hash(keys), dtype=np.int64)

    def describe(self) -> str:
        """One-line description used in reports."""
        return (
            f"ShardedRouter({self.keyed.describe()}, shards={self.n_shards}, "
            f"size={self.size})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()

    # -- batched operations -----------------------------------------------

    def _dispatch(self, keys, op: str, **kwargs):
        """Run ``op`` on each shard's sub-batch, in stream order, and
        return the results in input order."""
        keys = _as_key_array(keys)
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        if self.n_shards == 1:
            return getattr(self.shards[0], op)(keys, **kwargs)
        sid = self.shard_of(keys)
        order = np.argsort(sid, kind="stable")
        sorted_keys = keys[order]
        bounds = np.searchsorted(sid[order], np.arange(self.n_shards + 1))
        out_sorted = np.empty(keys.size, dtype=np.int64)
        for s in range(self.n_shards):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            if hi > lo:
                out_sorted[lo:hi] = getattr(self.shards[s], op)(
                    sorted_keys[lo:hi], **kwargs
                )
        out = np.empty(keys.size, dtype=np.int64)
        out[order] = out_sorted
        return out

    def insert_many(self, keys) -> np.ndarray:
        """Route and place a key batch; returns the assigned bin per key."""
        return self._dispatch(keys, "insert_many")

    def delete_many(self, keys, *, missing: str = "ignore") -> np.ndarray:
        """Route and remove a key batch; returns the freed bin per key."""
        return self._dispatch(keys, "delete_many", missing=missing)

    def lookup_many(self, keys) -> np.ndarray:
        """Route and look up a key batch (``-1`` for absent keys)."""
        return self._dispatch(keys, "lookup_many")

    # -- SLO sampling and merge -------------------------------------------

    def load_quantiles(self, qs=SLO_QUANTILES) -> tuple[float, ...]:
        """Quantiles of the cluster-wide per-bin load vector."""
        return histogram_quantiles(self.loads, qs)

    def record_slo(self) -> dict:
        """Record one cluster-wide tail-SLO sample onto the series."""
        loads = self.loads
        p50, p99, p999 = histogram_quantiles(loads)
        sample = {
            "ops": self.ops,
            "size": self.size,
            "max_load": int(loads.max(initial=0)),
            "p50": p50,
            "p99": p99,
            "p999": p999,
        }
        self._metrics.sample(self.series, **sample)
        return sample

    def merged(self) -> KeyedStore:
        """Fold all shard states into one store (order-independent)."""
        return functools.reduce(
            lambda acc, shard: acc.merge(shard), self.shards[1:], self.shards[0]
        )
