"""Drive a workload through a store/router and report throughput + tails.

:func:`run_service_workload` is the service layer's engine loop: it pulls
:class:`~repro.service.workloads.StepBatch` batches off a deterministic
stream, applies them (inserts, then deletes, then lookups — the order
within a step), samples the tail SLO at a fixed operation cadence, and
returns a :class:`ServiceReport` with keyed ops/sec and the final load
quantiles.  The CLI ``serve`` command and ``benchmarks/bench_service.py``
are thin wrappers over this function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.metrics import MetricsRegistry, global_registry
from repro.service.shard import ShardedRouter
from repro.service.store import (
    DEFAULT_MICRO_BATCH,
    KeyedStore,
    histogram_quantiles,
)
from repro.service.workloads import WorkloadSpec, generate_stream

__all__ = ["ServiceReport", "run_service_workload"]


@dataclass
class ServiceReport:
    """Summary of one service run, JSON-ready via :meth:`to_dict`."""

    scheme: str
    n_bins: int
    d: int
    n_shards: int
    backend: str
    ops: int
    inserts: int
    deletes: int
    lookups: int
    size: int
    seconds: float
    ops_per_sec: float
    insert_ops_per_sec: float
    max_load: int
    p50: float
    p99: float
    p999: float
    counters: dict = field(default_factory=dict)
    slo_series: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """Plain-dict form (numpy scalars already coerced)."""
        return {
            "scheme": self.scheme,
            "n_bins": self.n_bins,
            "d": self.d,
            "n_shards": self.n_shards,
            "backend": self.backend,
            "ops": self.ops,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "lookups": self.lookups,
            "size": self.size,
            "seconds": self.seconds,
            "ops_per_sec": self.ops_per_sec,
            "insert_ops_per_sec": self.insert_ops_per_sec,
            "max_load": self.max_load,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "counters": dict(self.counters),
            "slo_series": [dict(s) for s in self.slo_series],
        }


def run_service_workload(
    spec: WorkloadSpec,
    *,
    n_bins: int,
    d: int = 2,
    scheme: str | None = None,
    n_shards: int = 1,
    seed: int | None = None,
    micro_batch: int = DEFAULT_MICRO_BATCH,
    backend: str | None = None,
    slo_samples: int = 32,
    metrics: MetricsRegistry | None = None,
    series: str = "service.slo",
) -> ServiceReport:
    """Run ``spec`` through a fresh store (or sharded router).

    Parameters
    ----------
    spec:
        The workload (keys, churn, popularity, arrival shape).
    n_bins, d:
        Store geometry.
    scheme:
        Keyed-scheme registry name (explicit > ``REPRO_SCHEME`` env >
        ``"double"``); see :func:`repro.hashing.keyed_scheme_names`.
    n_shards:
        1 runs a single :class:`~repro.service.store.KeyedStore`; more
        runs a :class:`~repro.service.shard.ShardedRouter`.
    seed:
        Drives both the hash-family draws and the workload stream.
    micro_batch:
        Placement micro-batch size (see the store docs).
    backend:
        Assignment-map backend for every store/shard (explicit >
        ``REPRO_BACKEND`` env > ``"numpy"``; see
        :func:`repro.kernels.keymap.resolve_keymap_backend`).
    slo_samples:
        Target number of tail-SLO samples over the run (0 disables
        periodic sampling; a final sample is always recorded).
    metrics, series:
        Registry and series name receiving timers/counters/SLO samples.
    """
    registry = metrics if metrics is not None else global_registry()
    if n_shards > 1:
        store = ShardedRouter(
            n_bins,
            d,
            n_shards=n_shards,
            scheme=scheme,
            seed=seed,
            micro_batch=micro_batch,
            backend=backend,
            expected_keys=spec.n_keys,
            metrics=registry,
            series=series,
        )
        slo_target = store  # cluster-wide samples from the router
    else:
        store = KeyedStore(
            n_bins,
            d,
            scheme=scheme,
            seed=seed,
            micro_batch=micro_batch,
            backend=backend,
            expected_keys=spec.n_keys,
            metrics=registry,
            series=series,
        )
        slo_target = store
    total_ops = int(spec.n_keys * (1 + spec.churn + spec.lookups))
    sample_every = (
        max(1, total_ops // slo_samples) if slo_samples > 0 else None
    )
    next_sample = sample_every if sample_every is not None else None

    insert_seconds = 0.0
    start = time.perf_counter()
    for batch in generate_stream(spec, seed=seed):
        t0 = time.perf_counter()
        store.insert_many(batch.inserts)
        insert_seconds += time.perf_counter() - t0
        if batch.deletes.size:
            store.delete_many(batch.deletes, missing="ignore")
        if batch.lookups.size:
            store.lookup_many(batch.lookups)
        if next_sample is not None and store.ops >= next_sample:
            slo_target.record_slo()
            next_sample += sample_every
    seconds = time.perf_counter() - start
    slo_target.record_slo()

    loads = store.loads
    p50, p99, p999 = histogram_quantiles(loads)
    counters = store.counters
    scheme_label = (
        store.keyed.describe() if scheme is None else scheme
    )
    return ServiceReport(
        scheme=scheme_label,
        n_bins=n_bins,
        d=d,
        n_shards=n_shards,
        backend=store.backend,
        ops=store.ops,
        inserts=counters["inserts"],
        deletes=counters["deletes"],
        lookups=counters["lookups"],
        size=store.size,
        seconds=seconds,
        ops_per_sec=store.ops / seconds if seconds > 0 else float("inf"),
        insert_ops_per_sec=(
            counters["inserts"] / insert_seconds
            if insert_seconds > 0
            else float("inf")
        ),
        max_load=int(loads.max(initial=0)),
        p50=p50,
        p99=p99,
        p999=p999,
        counters=counters,
        slo_series=registry.get_series(series),
    )
