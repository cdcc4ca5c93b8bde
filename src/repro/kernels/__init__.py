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
documented in :mod:`repro.kernels.generate`; :func:`run_placement_kernel`
is the single public entry point over raw choice/tie arrays, and
``simulate_batch`` drives the same machinery with fused generation.

The queueing path: the supermarket-model CTMC of Tables 7–8 runs through
:func:`run_supermarket_kernel`, whose blocked numpy loop
(:mod:`repro.kernels.supermarket`) is bit-identical to the oracle
:func:`repro.kernels.reference.simulate_supermarket_reference` under the
draw-stream contract documented there.

The peeling path: 2-core computation on the key-cell hypergraph (IBLT
listing, the peeling-threshold experiments) runs through
:func:`run_peeling_kernel`, whose vectorized worklist loop
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

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.base import ChoiceScheme
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
from repro.kernels.peeling import (
    PeelOutcome,
    peel_arrays_numpy,
    validate_edges,
)
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
from repro.kernels.supermarket import (
    check_queue_packing,
    finalize_stats,
    simulate_supermarket_numpy,
    validate_supermarket_args,
)
from repro.metrics import MetricsRegistry, global_registry
from repro.rng import default_generator
from repro.types import QueueingResult

__all__ = [
    "DEFAULT_BLOCK",
    "KEY_SHIFT",
    "KNOWN_KEYMAP_BACKENDS",
    "KernelLayout",
    "KeyMap",
    "NOT_FOUND",
    "PeelOutcome",
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
    "run_peeling_kernel",
    "run_placement_kernel",
    "run_supermarket_kernel",
    "sequential_packed_reference",
    "simulate_single_trial",
    "simulate_supermarket_reference",
    "tabulation_hash_scalar",
    "tabulation_hash_u64",
]

#: Ball-steps generated (and fed to the kernel) per superblock.  Sweep at
#: n = 2^12..2^14, d = 3 showed throughput flat past ~2048 steps while
#: scratch grows linearly, so 4096 sits at the knee; see
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


def run_placement_kernel(
    loads: np.ndarray,
    choices: np.ndarray,
    tie_keys: np.ndarray | None = None,
    *,
    tie_break: str = "random",
    backend: str | None = None,
    metrics: MetricsRegistry | None = None,
) -> np.ndarray:
    """Place ``choices`` sequentially into ``loads`` using a kernel backend.

    The raw-array face of the kernel subsystem (``simulate_batch`` wraps
    it together with fused choice generation).

    Parameters
    ----------
    loads:
        ``(trials, n_bins)`` integer load table, updated in place.
    choices:
        ``(trials, steps, d)`` candidate bins; ball ``b`` of trial ``t``
        goes to the least loaded of ``choices[t, b]``.
    tie_keys:
        Optional ``(trials, steps, d)`` non-negative tie-break keys (lower
        wins among load ties; equal keys fall back to the lower bin).
        Required to fit the planned layout's tie-key width.  Must be
        ``None`` for ``tie_break="left"``, where the column index is the
        tie key by definition.
    tie_break, backend, metrics:
        As in ``simulate_batch``.

    Returns
    -------
    numpy.ndarray
        ``loads``, for chaining.
    """
    if loads.ndim != 2:
        raise ConfigurationError(f"loads must be 2-D, got shape {loads.shape}")
    if choices.ndim != 3 or choices.shape[0] != loads.shape[0]:
        raise ConfigurationError(
            "choices must be (trials, steps, d) matching loads' trial count; "
            f"got {choices.shape} vs {loads.shape}"
        )
    trials, n_bins = loads.shape
    _, steps, d = choices.shape
    if tie_break not in ("random", "left"):
        raise ConfigurationError(
            f"tie_break must be 'random' or 'left', got {tie_break!r}"
        )
    if tie_break == "left" and tie_keys is not None:
        raise ConfigurationError(
            "tie_keys must be None with tie_break='left' (column order rules)"
        )
    layout = plan_layout(n_bins, d, tie_break, trials, steps)
    if layout is None:
        raise ConfigurationError(
            f"n_bins={n_bins} exceeds the packed-kernel address space "
            "(n_bins + 1 > 2**31)"
        )
    if tie_keys is not None:
        if tie_keys.shape != choices.shape:
            raise ConfigurationError(
                f"tie_keys shape {tie_keys.shape} != choices shape {choices.shape}"
            )
        if tie_keys.size and (
            int(tie_keys.min()) < 0 or int(tie_keys.max()) >> layout.tie_bits
        ):
            raise ConfigurationError(
                f"tie_keys must lie in [0, 2**{layout.tie_bits}) for this layout"
            )
    # The int32 work table bounds loads at 31 value bits; wide layouts may
    # leave even fewer bits to the packed load field.
    load_budget = (1 << min(layout.load_bits, 31)) - 1
    if int(loads.min(initial=0)) < 0 or int(loads.max(initial=0)) + steps > (
        load_budget
    ):
        raise ConfigurationError(
            "loads must be non-negative and fit the packed load field "
            f"(max {load_budget}) after placing all balls"
        )
    impl = resolve_backend(backend)
    registry = metrics if metrics is not None else kernel_metrics()
    window = choose_window(n_bins, d)
    bins_p = layout.bins_p
    dt = layout.dtype
    cols = np.arange(d, dtype=dt) << dt.type(layout.cidx_bits)
    with registry.timer("kernel.place_seconds"):
        for t0 in range(0, trials, layout.trial_chunk):
            t1 = min(trials, t0 + layout.trial_chunk)
            ct = t1 - t0
            work = np.zeros(ct * bins_p, dtype=np.int32)
            work.reshape(ct, bins_p)[:, :n_bins] = loads[t0:t1]
            toff = np.arange(ct, dtype=dt) * dt.type(bins_p)
            pc = np.empty((d, ct, steps + 1), dtype=dt)
            pc[:, :, steps] = toff + dt.type(n_bins)
            body = pc[:, :, :steps]
            np.copyto(
                body,
                choices[t0:t1].transpose(2, 0, 1),
                casting="unsafe",
            )
            if tie_break == "left":
                if layout.tie_bits:
                    body += cols[:, None, None]
            elif tie_keys is not None and layout.tie_bits:
                keys = tie_keys[t0:t1].transpose(2, 0, 1).astype(dt)
                body += keys << dt.type(layout.cidx_bits)
            body += toff[:, None]
            ws = impl.make_workspace(
                d=d, trials=ct, window=window, bins_p=bins_p, dtype=dt
            )
            impl.place(work, pc, layout=layout, workspace=ws)
            loads[t0:t1] = work.reshape(ct, bins_p)[:, :n_bins]
    registry.increment("kernel.balls_placed", trials * steps)
    registry.increment(f"kernel.calls.{impl.name}", 1)
    return loads


def run_peeling_kernel(
    edges: np.ndarray,
    n_vertices: int,
    *,
    backend: str | None = None,
    metrics: MetricsRegistry | None = None,
) -> PeelOutcome:
    """Peel an ``(m, d)`` edge array to its 2-core through a kernel backend.

    The peeling face of the kernel subsystem:
    :func:`repro.peeling.decoder.peel` and the batched IBLT lister drive
    this function.  The result is exactly equivalent — success flag, peel
    order, core-edge set, round count — to
    :func:`repro.peeling.decoder.peel_reference` under the
    synchronous-round contract documented in :mod:`repro.kernels.peeling`.

    Parameters
    ----------
    edges:
        ``(m, d)`` integer array of vertex ids in ``[0, n_vertices)``;
        vertices may repeat within an edge (multiplicity-aware
        semantics, see the contract).
    n_vertices:
        Vertex-space size (IBLT cell count / hypergraph vertex count).
    backend:
        Kernel-backend name (``"numpy"``), or None for env resolution.
    metrics:
        Registry receiving the kernel timer/counters (global by default).

    Returns
    -------
    PeelOutcome
        ``(success, peeled_order, core_edges, rounds)``.
    """
    edges = validate_edges(edges, n_vertices)
    impl = resolve_backend(backend)
    registry = metrics if metrics is not None else kernel_metrics()
    with registry.timer("kernel.peel_seconds"):
        outcome = peel_arrays_numpy(edges, n_vertices)
    registry.increment("kernel.edges_peeled", int(outcome.peeled_order.size))
    registry.increment(f"kernel.calls.{impl.name}", 1)
    return outcome


def run_supermarket_kernel(
    scheme: ChoiceScheme,
    lam: float,
    sim_time: float,
    *,
    burn_in: float = 0.0,
    seed: int | np.random.Generator | None = None,
    max_total_jobs: int | None = None,
    track_tails: bool = False,
    tie_break: str = "random",
    backend: str | None = None,
    metrics: MetricsRegistry | None = None,
) -> QueueingResult:
    """Run one supermarket-model CTMC simulation through a kernel backend.

    The queueing face of the kernel subsystem (Tables 7-8):
    :func:`repro.queueing.simulate_supermarket` is a thin wrapper over this
    function.  It is bit-identical to
    :func:`repro.kernels.reference.simulate_supermarket_reference` for the
    same seed under the draw-stream contract documented in
    :mod:`repro.kernels.supermarket`.

    Parameters
    ----------
    scheme:
        Choice generator; ``scheme.n_bins`` queues, ``scheme.d`` choices
        per arrival.
    lam:
        Arrival rate per queue, in (0, 1) for stability.
    sim_time:
        Total simulated time (the paper ran 10000 time units).
    burn_in:
        Jobs arriving before this time are excluded from the sojourn mean
        and all time averages (the paper used 1000).
    seed:
        Seed or generator.  A passed-in generator is left in the same
        state as after the oracle run.
    max_total_jobs:
        Safety valve: abort with :class:`~repro.errors.StabilityError`
        when the population exceeds this (defaults to ``50 * n``).
    track_tails:
        When True, also accumulate the time-averaged fraction of queues
        with at least ``i`` jobs (``result.tail_fractions``).
    tie_break:
        ``"random"`` (the standard model) or ``"left"`` (join the first
        shortest candidate in choice order).
    backend:
        Kernel-backend name (``"numpy"``), or None for env resolution.
    metrics:
        Registry receiving the kernel timer/counters (global by default).

    Returns
    -------
    QueueingResult
        Sojourn mean, event counts, busy fraction, and optional tails.
    """
    validate_supermarket_args(lam, sim_time, burn_in, tie_break)
    impl = resolve_backend(backend)
    registry = metrics if metrics is not None else kernel_metrics()
    rng = default_generator(seed)
    n = scheme.n_bins
    if max_total_jobs is None:
        max_total_jobs = 50 * n
    check_queue_packing(max_total_jobs)
    with registry.timer("kernel.supermarket_seconds"):
        stats = simulate_supermarket_numpy(
            scheme,
            lam,
            sim_time,
            burn_in,
            rng,
            max_total_jobs,
            track_tails,
            tie_break == "left",
        )
    registry.increment(
        "kernel.supermarket_events", stats.n_arrivals + stats.n_departures
    )
    registry.increment("kernel.supermarket_completions", stats.s_count)
    registry.increment(f"kernel.calls.{impl.name}", 1)
    return finalize_stats(stats, n=n, sim_time=sim_time, burn_in=burn_in)
