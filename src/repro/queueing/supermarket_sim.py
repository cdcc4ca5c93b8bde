"""Event-driven supermarket-model simulator (thin kernel wrapper).

CTMC formulation
----------------
With exp(1) service at every queue, the system state (queue lengths) is a
continuous-time Markov chain whose transitions are:

- **arrival** at rate ``λn``: a customer draws ``d`` queues from the choice
  scheme and joins the shortest (ties uniform);
- **departure** at rate ``b`` (the number of busy queues): the departing
  queue is uniform among busy queues (memorylessness makes every busy
  server's residual service exp(1)).

So the simulator needs no event heap: it repeatedly draws the next event
type with probability proportional to the two rates and an Exp(λn + b)
inter-event time.

The inner loop lives in the kernel subsystem:
:func:`simulate_supermarket` forwards to
:func:`repro.kernels.run_supermarket_kernel`, the blocked numpy loop,
which is bit-identical to the oracle
:func:`repro.kernels.reference.simulate_supermarket_reference`; the
draw-stream contract lives in :mod:`repro.kernels.supermarket`.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import ChoiceScheme
from repro.kernels import run_supermarket_kernel
from repro.types import QueueingResult

__all__ = ["simulate_supermarket"]


def simulate_supermarket(
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
) -> QueueingResult:
    """Simulate the supermarket model and report mean sojourn time.

    Parameters
    ----------
    scheme:
        Choice generator; ``scheme.n_bins`` queues, ``scheme.d`` choices per
        arrival.
    lam:
        Arrival rate per queue, in (0, 1) for stability.
    sim_time:
        Total simulated time (the paper ran 10000 time units).
    burn_in:
        Jobs arriving before this time are excluded from the sojourn mean
        (the paper used 1000).
    seed:
        Seed or generator.
    max_total_jobs:
        Safety valve: abort with :class:`~repro.errors.StabilityError` if
        the population exceeds this (defaults to ``50 · n``), which can only
        happen when the system is pushed outside its stability region.
    track_tails:
        When True, accumulate the time-averaged fraction of queues with at
        least ``i`` jobs (after burn-in) and return it as
        ``result.tail_fractions`` — directly comparable to the fluid
        equilibrium ``π_i``.
    tie_break:
        ``"random"`` (the standard model) or ``"left"`` — join the first
        shortest candidate in choice order, the asymmetric rule matching
        Vöcking's scheme when used with a partitioned choice scheme.
    backend:
        Kernel-backend name (``"numpy"``); None resolves via
        ``REPRO_BACKEND``, then ``"numpy"``.
    """
    return run_supermarket_kernel(
        scheme,
        lam,
        sim_time,
        burn_in=burn_in,
        seed=seed,
        max_total_jobs=max_total_jobs,
        track_tails=track_tails,
        tie_break=tie_break,
        backend=backend,
    )
