"""Placement, queueing, peeling and keymap kernels for the hot paths.

Every table in the paper reduces to the same inner loop — gather candidate
loads, argmin with tie-breaking, scatter-increment — executed ``m × trials``
times.  This package isolates that loop behind one numpy kernel, the fused
out-of-order commit kernel of :mod:`repro.kernels.numpy_backend` (flat
``np.take`` gathers, packed integer tie keys, preallocated scratch reused
across blocks), bit-identical to the sequential oracle
:func:`repro.kernels.reference.sequential_packed_reference`.

Backend names resolve in the order explicit ``backend=`` argument (or
``ExperimentSpec.backend``) > the ``REPRO_BACKEND`` environment variable
> ``"numpy"``; any other name raises
:class:`~repro.errors.ConfigurationError`.  Worker processes inherit the
name through the pickled chunk task *and* the environment variable, so
``run_experiment`` fan-out resolves identically everywhere.

The shared data contract (packed candidates, tie keys, dummy padding) is
documented in :mod:`repro.kernels.generate`; ``simulate_batch`` is the
entry point, driving the kernel with fused choice generation.

The queueing path: the supermarket model of Table 8 runs through
:func:`repro.queueing.simulate_supermarket`, which decides a batch of
runs' pre-drawn schedules with windowed commits
(:mod:`repro.kernels.supermarket`), bit-identical run by run to the oracle
:func:`repro.kernels.reference.simulate_supermarket_reference` under the
schedule contract documented there.

The peeling path: 2-core computation on the key-cell hypergraph (the
peeling-threshold experiments) runs through
:func:`repro.peeling.peel`, whose vectorized worklist loop
(:mod:`repro.kernels.peeling`) is exactly equivalent — success flag, peel
order, core-edge set, and round count — to the oracle
:func:`repro.peeling.decoder.peel_reference` under the synchronous-round
contract documented there.

The service path: the keyed store's assignment map (key → bin) runs on
the vectorized open-addressed :class:`repro.kernels.keymap.KeyMap`
kernel — itself a double-hashed table, see :mod:`repro.hashing.probe` —
behind :func:`make_keymap`, which also accepts ``"reference"`` for the
dict oracle :class:`repro.kernels.keymap.ReferenceKeyMap` that the kernel
is exactly equal to, batch by batch.
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError
from repro.kernels.generate import (
    KEY_SHIFT,
    KernelLayout,
    generate_packed,
    plan_layout,
)
from repro.kernels.hash_schemes import (
    flatten_tables,
    pairwise_affine_scalar,
    pairwise_affine_u64,
    tabulation_hash_scalar,
    tabulation_hash_u64,
)
from repro.kernels.keymap import (
    KNOWN_KEYMAP_BACKENDS,
    NOT_FOUND,
    KeyMap,
    ReferenceKeyMap,
    make_keymap,
    resolve_keymap_backend,
)
from repro.kernels.numpy_backend import NumpyBackend, choose_window
from repro.kernels.parallel_trials import (
    default_shards,
    fused_parallel_supported,
    run_parallel_trials,
)
from repro.kernels.reference import (
    place_ball,
    sequential_packed_reference,
    simulate_single_trial,
    simulate_supermarket_reference,
)
from repro.kernels.supermarket import check_queue_packing
from repro.metrics import MetricsRegistry, global_registry

__all__ = [
    "DEFAULT_BLOCK",
    "KEY_SHIFT",
    "KNOWN_KEYMAP_BACKENDS",
    "KernelLayout",
    "KeyMap",
    "NOT_FOUND",
    "ReferenceKeyMap",
    "check_queue_packing",
    "choose_window",
    "default_shards",
    "flatten_tables",
    "fused_parallel_supported",
    "generate_packed",
    "kernel_metrics",
    "make_keymap",
    "pairwise_affine_scalar",
    "pairwise_affine_u64",
    "place_ball",
    "plan_layout",
    "resolve_backend",
    "resolve_backend_name",
    "resolve_keymap_backend",
    "run_parallel_trials",
    "sequential_packed_reference",
    "simulate_single_trial",
    "simulate_supermarket_reference",
    "tabulation_hash_scalar",
    "tabulation_hash_u64",
]

#: Ball-steps drawn per generation superblock; ``simulate_batch`` places
#: a span of whole superblocks per kernel call.  Sweep at n = 2^12..2^14,
#: d = 3 (one superblock per call) showed throughput flat past ~2048
#: steps while scratch grows linearly, so 4096 sits at the knee; see
#: ``docs/performance.md``.
DEFAULT_BLOCK = 4096

ENV_VAR = "REPRO_BACKEND"
KNOWN_BACKENDS = ("numpy",)

_NUMPY = NumpyBackend()


def kernel_metrics() -> MetricsRegistry:
    """The registry kernel-level timers and counters default to."""
    return global_registry()


def resolve_backend_name(name: str | None, known: tuple[str, ...]) -> str:
    """Resolve a backend name: explicit ``name`` > ``REPRO_BACKEND`` > numpy.

    Names are case- and space-insensitive.  A name outside ``known``,
    from either source, raises :class:`~repro.errors.ConfigurationError`.
    """
    if name is None:
        name = os.environ.get(ENV_VAR) or "numpy"
    key = name.strip().lower()
    if key not in known:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; known: {', '.join(known)}"
        )
    return key


def resolve_backend(name: str | None = None) -> NumpyBackend:
    """The placement backend for ``name`` (see :func:`resolve_backend_name`)."""
    resolve_backend_name(name, KNOWN_BACKENDS)
    return _NUMPY
