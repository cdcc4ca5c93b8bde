"""Balanced allocations with deletions ("churn"), per paper Section 2.2.

The paper notes Vöcking's witness-tree argument "also appl[ies] in settings
with deletions".  This engine makes that setting runnable: after an initial
fill of ``n_balls`` balls, each churn step deletes one *uniformly random
alive ball* and inserts a fresh ball through the choice scheme — keeping
the population constant while the configuration mixes.  The observable is
the steady-state load distribution, which should again be indistinguishable
between double hashing and fully random choices.

This is also the repo's keyed-stream engine: pass a
:class:`~repro.hashing.keyed.KeyedStreamScheme` (or any registry scheme via
:func:`repro.hashing.make_scheme`) and the insert stream is driven by
hashed keys instead of fresh per-ball randomness — the regime the service
layer (:mod:`repro.service`) operates in, with live per-key state on top.

Implementation follows the lock-step trial layout of
:mod:`repro.core.vectorized`: ball→bin placements are a ``(trials,
n_balls)`` matrix, so deletion of a random ball index and re-insertion is a
vectorized gather/scatter per step.  The signature mirrors
``simulate_batch`` (``seed``/``tie_break``/``block``/``backend``/
``metrics``); note that churn must track *which bin every alive ball
occupies*, which the packed placement kernel does not expose, so churn
runs its own strided per-step path — ``backend`` is validated and
recorded for API uniformity.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.base import ChoiceScheme
from repro.kernels import DEFAULT_BLOCK, kernel_metrics, resolve_backend
from repro.metrics import MetricsRegistry
from repro.rng import default_generator
from repro.types import TrialBatchResult

__all__ = ["simulate_churn"]


def _place_step(
    loads: np.ndarray,
    ball_choices: np.ndarray,
    noise: np.ndarray | None,
    rows: np.ndarray,
) -> np.ndarray:
    """Place one ball per trial; returns the chosen bin per trial.

    ``noise`` is the U[0,1) tie-break key block for this step (random
    tie-breaking) or ``None`` (leftmost-choice tie-breaking).
    """
    candidate = loads[rows[:, None], ball_choices]
    if noise is not None:
        picks = np.argmin(candidate + noise, axis=1)
    else:
        picks = np.argmin(candidate, axis=1)
    chosen = ball_choices[rows, picks]
    loads[rows, chosen] += 1
    return chosen


def simulate_churn(
    scheme: ChoiceScheme,
    n_balls: int,
    churn_steps: int,
    trials: int,
    *,
    seed: int | np.random.Generator | None = None,
    tie_break: str = "random",
    block: int = DEFAULT_BLOCK,
    backend: str | None = None,
    metrics: MetricsRegistry | None = None,
) -> TrialBatchResult:
    """Fill with ``n_balls``, then run ``churn_steps`` delete+insert cycles.

    Parameters
    ----------
    scheme:
        Choice generator (also used for the initial fill).
    n_balls:
        Standing population per trial.
    churn_steps:
        Number of delete-one/insert-one cycles after the fill.
    trials:
        Lock-step trial count.
    seed:
        Seed or generator driving all randomness.
    tie_break:
        ``"random"`` (the standard scheme) or ``"left"`` (first shortest
        candidate in choice order), as in ``simulate_batch``.
    block:
        Steps generated per RNG superblock (a throughput knob, but note
        it changes the draw interleaving, so results for a fixed seed
        depend on it).  Default: :data:`repro.kernels.DEFAULT_BLOCK`.
    backend:
        Kernel-backend name, resolved and recorded exactly as in
        ``simulate_batch``; the churn stream itself always runs the
        strided engine (see module docstring).
    metrics:
        Registry receiving ``churn.*`` counters and timers (the global
        registry by default).

    Returns
    -------
    TrialBatchResult
        Final loads after churn; ``n_balls`` balls remain per trial.
    """
    if n_balls < 1:
        raise ConfigurationError(f"n_balls must be positive, got {n_balls}")
    if churn_steps < 0:
        raise ConfigurationError(
            f"churn_steps must be non-negative, got {churn_steps}"
        )
    if trials < 1:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if block < 1:
        raise ConfigurationError(f"block must be positive, got {block}")
    if tie_break not in ("random", "left"):
        raise ConfigurationError(
            f"tie_break must be 'random' or 'left', got {tie_break!r}"
        )
    impl = resolve_backend(backend)
    registry = metrics if metrics is not None else kernel_metrics()
    rng = default_generator(seed)
    n = scheme.n_bins
    d = scheme.d
    random_ties = tie_break == "random" and d > 1
    loads = np.zeros((trials, n), dtype=np.int32)
    placements = np.empty((trials, n_balls), dtype=np.int64)
    rows = np.arange(trials)

    with registry.timer("churn.seconds"):
        # Initial fill: ball j occupies placement slot j.
        done = 0
        while done < n_balls:
            steps = min(block, n_balls - done)
            choices = scheme.batch(steps * trials, rng).reshape(steps, trials, d)
            noise = rng.random((steps, trials, d)) if random_ties else None
            for s in range(steps):
                chosen = _place_step(
                    loads, choices[s], None if noise is None else noise[s], rows
                )
                placements[:, done + s] = chosen
            done += steps

        # Churn: delete a uniform alive ball, insert into its slot.
        done = 0
        while done < churn_steps:
            steps = min(block, churn_steps - done)
            victims = rng.integers(0, n_balls, size=(steps, trials))
            choices = scheme.batch(steps * trials, rng).reshape(steps, trials, d)
            noise = rng.random((steps, trials, d)) if random_ties else None
            for s in range(steps):
                victim_bins = placements[rows, victims[s]]
                loads[rows, victim_bins] -= 1
                chosen = _place_step(
                    loads, choices[s], None if noise is None else noise[s], rows
                )
                placements[rows, victims[s]] = chosen
            done += steps

    registry.increment("churn.balls_filled", n_balls * trials)
    registry.increment("churn.steps", churn_steps * trials)
    registry.increment(f"churn.calls.{impl.name}", 1)
    return TrialBatchResult(n_bins=n, n_balls=n_balls, loads=loads)
