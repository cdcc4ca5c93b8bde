"""Supermarket-model simulator: the supermarket kernel's entry point.

:func:`simulate_supermarket` runs a batch of
:class:`~repro.kernels.supermarket.SupermarketRun` descriptions in one
kernel call; a single run is a batch of one.  Each run draws its own
uniformized schedule (arrivals and service ticks at the constant rate
``(1 + λ)n``), and the windowed numpy loop of
:mod:`repro.kernels.supermarket` decides every run's events side by side.
Every result is bit-identical to the oracle
:func:`repro.kernels.reference.simulate_supermarket_reference` and does
not depend on the rest of the batch.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.kernels import kernel_metrics, resolve_backend
from repro.kernels.supermarket import SupermarketRun, simulate_supermarket_numpy
from repro.rng import default_generator
from repro.types import QueueingResult

__all__ = ["SupermarketRun", "simulate_supermarket"]


def simulate_supermarket(
    runs: Sequence[SupermarketRun], *, backend: str | None = None
) -> list[QueueingResult]:
    """Simulate every run of ``runs``; return their results in order.

    ``backend`` names the kernel backend (``"numpy"``); None resolves
    via ``REPRO_BACKEND``, then ``"numpy"``.  Runs must not share a
    generator object.  If any run trips its stability valve, the first
    such run raises its :class:`~repro.errors.StabilityError`.

    The call records ``kernel.supermarket_seconds``,
    ``kernel.supermarket_events`` (arrivals plus completed services),
    ``kernel.supermarket_completions``, ``kernel.supermarket_passes`` and
    ``kernel.calls.numpy`` in the global kernel registry.
    """
    impl = resolve_backend(backend)
    runs = list(runs)
    if not runs or not all(isinstance(r, SupermarketRun) for r in runs):
        raise ConfigurationError("simulate_supermarket needs SupermarketRun items")
    rngs = [default_generator(r.seed) for r in runs]
    if len({id(g) for g in rngs}) < len(rngs):
        raise ConfigurationError("runs of one batch must not share a generator")
    registry = kernel_metrics()
    with registry.timer("kernel.supermarket_seconds"):
        results, passes = simulate_supermarket_numpy(runs, rngs)
    registry.increment(
        "kernel.supermarket_events", sum(r.n_events for r in results)
    )
    registry.increment(
        "kernel.supermarket_completions", sum(r.completed_jobs for r in results)
    )
    registry.increment("kernel.supermarket_passes", passes)
    registry.increment(f"kernel.calls.{impl.name}", 1)
    return results
