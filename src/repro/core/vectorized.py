"""Vectorized multi-trial balanced-allocation engine (the hot path).

Strategy
--------
The placement of ball *t+1* depends on the loads after ball *t*, so the
ball loop cannot be vectorized away naively.  Since this release the hot
path lives in :mod:`repro.kernels`: choices (and integer tie keys) for a
``block``-ball superblock are generated in one fused pass — a single
``uint64`` draw per ball for power-of-two double hashing — packed into
flat int32 candidates, and handed to the numpy placement kernel, which
commits balls out of sequential order whenever their candidate sets are
provably disjoint from all earlier pending balls (exact, bit-identical
to sequential placement on the same draws; see
:mod:`repro.kernels.numpy_backend`).

Geometries beyond the int32 packed address space (``n ≳ 2^23``) plan a
*wide* int64 layout (see :mod:`repro.kernels.generate`) and keep the
fused kernel; tables no packed layout can host (``n_bins + 1 > 2^31``)
are rejected with :class:`~repro.errors.ConfigurationError` before any
allocation.

Memory: ``loads`` uses int32 — 4 bytes × trials × n_bins — which bounds
``n_balls`` at ``2**31 - 1``; heavier runs are rejected up front with the
dtype to use instead.  Kernel scratch is bounded by trial-chunking (see
:func:`repro.kernels.plan_layout`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.hashing.base import ChoiceScheme
from repro.kernels import (
    DEFAULT_BLOCK,
    choose_window,
    generate_packed,
    kernel_metrics,
    plan_layout,
    resolve_backend,
)
from repro.metrics import MetricsRegistry
from repro.rng import default_generator
from repro.types import TrialBatchResult

__all__ = ["simulate_batch", "DEFAULT_BLOCK"]

_LOAD_DTYPE = np.int32
_MAX_BALLS = int(np.iinfo(_LOAD_DTYPE).max)


def simulate_batch(
    scheme: ChoiceScheme,
    n_balls: int,
    trials: int,
    *,
    seed: int | np.random.Generator | None = None,
    tie_break: str = "random",
    block: int = DEFAULT_BLOCK,
    check_invariants: bool = False,
    backend: str | None = None,
    metrics: MetricsRegistry | None = None,
) -> TrialBatchResult:
    """Run ``trials`` independent balls-and-bins trials in lock-step.

    Parameters
    ----------
    scheme:
        Choice generator shared by all trials (stateless per ball).
    n_balls:
        Balls thrown per trial; must fit the int32 load table.
    trials:
        Number of independent trials.
    seed:
        Seed or generator driving all randomness.
    tie_break:
        ``"random"`` for the paper's standard scheme, ``"left"`` for
        Vöcking-style leftmost tie-breaking.
    block:
        Ball steps generated (and kernel-placed) per superblock.  The
        default is sweep-derived (see ``docs/performance.md``); it is a
        throughput/scratch-memory knob, not a semantic one.
    check_invariants:
        If True, verify after the run that every trial placed exactly
        ``n_balls`` balls (cheap O(trials · n_bins) check; used in tests).
    backend:
        Kernel backend name (``"numpy"``); ``None`` defers to
        ``REPRO_BACKEND``, then ``"numpy"``.
    metrics:
        Registry for kernel timers and counters; defaults to the
        process-global registry.

    Returns
    -------
    TrialBatchResult
        Raw ``(trials, n_bins)`` final loads plus geometry.
    """
    if n_balls < 0:
        raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")
    if n_balls > _MAX_BALLS:
        raise ConfigurationError(
            f"n_balls={n_balls} overflows the {np.dtype(_LOAD_DTYPE).name} "
            f"load table (max {_MAX_BALLS}); rerun with loads held in int64 "
            "(e.g. aggregate several smaller batches) for heavier runs"
        )
    if trials < 1:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if block < 1:
        raise ConfigurationError(f"block must be positive, got {block}")
    if tie_break not in ("random", "left"):
        raise ConfigurationError(
            f"tie_break must be 'random' or 'left', got {tie_break!r}"
        )
    rng = default_generator(seed)
    impl = resolve_backend(backend)
    registry = metrics if metrics is not None else kernel_metrics()
    n = scheme.n_bins
    d = scheme.d
    layout = plan_layout(n, d, tie_break, trials, max(1, min(block, n_balls)))
    if layout is None:
        raise ConfigurationError(
            f"n_bins={n} exceeds the packed-kernel address space "
            "(n_bins + 1 > 2**31)"
        )
    loads = np.zeros((trials, n), dtype=_LOAD_DTYPE)

    if n_balls and n == 1:
        # Degenerate table: every ball lands in the only bin, no RNG needed.
        loads[:, 0] = n_balls
    elif n_balls:
        window = choose_window(n, d)
        bins_p = layout.bins_p
        for t0 in range(0, trials, layout.trial_chunk):
            t1 = min(trials, t0 + layout.trial_chunk)
            chunk = t1 - t0
            work = np.zeros(chunk * bins_p, dtype=_LOAD_DTYPE)
            ws = impl.make_workspace(
                d=d, trials=chunk, window=window, bins_p=bins_p,
                dtype=layout.dtype,
            )
            remaining = n_balls
            while remaining > 0:
                steps = min(block, remaining)
                with registry.timer("kernel.generate_seconds"):
                    pc = generate_packed(scheme, chunk, steps, rng, layout)
                with registry.timer("kernel.place_seconds"):
                    impl.place(work, pc, layout=layout, workspace=ws)
                remaining -= steps
            if layout.wide and int(work.max(initial=0)) >> layout.load_bits:
                # Sound overflow detector: loads only grow, so a final
                # load under 2**load_bits proves no intermediate
                # packed key ever wrapped into the sign bit.
                raise SimulationError(
                    f"load field overflow: a bin exceeded 2**"
                    f"{layout.load_bits} in the wide packed layout "
                    f"(n_bins={n}, d={d}); results discarded"
                )
            loads[t0:t1] = work.reshape(chunk, bins_p)[:, :n]
        registry.increment("kernel.balls_placed", n_balls * trials)
        registry.increment(f"kernel.calls.{impl.name}", 1)

    if check_invariants:
        totals = loads.sum(axis=1, dtype=np.int64)
        if not np.all(totals == n_balls):
            raise SimulationError(
                "ball-conservation violated: expected "
                f"{n_balls} balls per trial, got totals {np.unique(totals)}"
            )
    return TrialBatchResult(n_bins=n, n_balls=n_balls, loads=loads)
