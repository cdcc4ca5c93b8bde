"""Keyed-workload service layer: a production-shaped keyed store/router.

This package is the repo's bridge from the paper's stochastic process to
the systems it models: items arrive *with keys*, their ``d`` candidate
bins come from keyed double hashing (two hash computations per key — the
paper's efficiency pitch), and per-bin load state is live across
insert/delete/lookup streams.

- :class:`KeyedStore` — the single-node keyed dictionary/router with
  micro-batched least-loaded placement and tail-SLO sampling.
- :class:`ShardedRouter` — deterministic sharding over stores sharing one
  keyed scheme, with an associative :meth:`~KeyedStore.merge`.
- :class:`WorkloadSpec` / :func:`generate_stream` — deterministic keyed
  workload streams (uniform/zipf popularity, churn, arrival shaping).
- :func:`run_service_workload` — the engine loop the CLI ``serve``
  command and ``benchmarks/bench_service.py`` drive.

Scheme names (``"double"``, ``"tabulation"``, ``"random"``, ...) resolve
through the unified registry in :mod:`repro.hashing.registry`.  The
store's key → bin bookkeeping runs on the vectorized open-addressed
assignment-map kernel (:mod:`repro.kernels.keymap`); pick a tier with
``backend=`` or the ``REPRO_BACKEND`` environment variable.
"""

from repro.service.runner import ServiceReport, run_service_workload
from repro.service.shard import ShardedRouter
from repro.service.store import DEFAULT_MICRO_BATCH, KeyedStore
from repro.service.workloads import StepBatch, WorkloadSpec, generate_stream

__all__ = [
    "DEFAULT_MICRO_BATCH",
    "KeyedStore",
    "ServiceReport",
    "ShardedRouter",
    "StepBatch",
    "WorkloadSpec",
    "generate_stream",
    "run_service_workload",
]
