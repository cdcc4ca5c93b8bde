"""Reference implementations: the executable spec the kernels must match.

Two layers live here:

- :func:`place_ball` / :func:`simulate_single_trial` — the paper process
  written as a plain loop with small numpy calls.  This is the *reference
  backend* of the kernel subsystem: deliberately scalar, bit-stable across
  releases (``tests/data/golden_reference.json`` pins its outputs), and
  the distributional ground truth the vectorized backends are tested
  against.
- :func:`sequential_packed_reference` — a pure-Python walk of the *packed*
  candidate arrays of :mod:`repro.kernels.generate`, used by the kernel
  test suite to assert that the fused numpy backend is bit-identical to
  sequential placement on the same draws.
- :func:`simulate_supermarket_reference` — the supermarket model as a
  scalar decision loop over the pre-drawn schedule of
  :mod:`repro.kernels.supermarket`.  ``tests/data/golden_supermarket.json``
  pins its outputs, and the windowed kernel is asserted bit-identical to
  it for every run of a batch.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.base import ChoiceScheme
from repro.kernels.blockrng import TIE_BITS
from repro.kernels.generate import KernelLayout
from repro.kernels.supermarket import (
    SupermarketAccumulator,
    SupermarketRun,
    draw_events,
)
from repro.rng import default_generator
from repro.types import (
    LoadDistribution,
    QueueingResult,
    load_distribution,
    trial_histograms,
)

__all__ = [
    "TieBreak",
    "place_ball",
    "sequential_packed_reference",
    "simulate_single_trial",
    "simulate_supermarket_reference",
]

TieBreak = Literal["random", "left"]


def place_ball(
    loads: np.ndarray,
    choices: np.ndarray,
    rng: np.random.Generator,
    tie_break: TieBreak = "random",
) -> int:
    """Place one ball given its candidate bins; return the chosen bin.

    Mutates ``loads`` in place.  With ``tie_break="random"`` the least-loaded
    candidate is chosen uniformly among ties; with ``"left"`` the leftmost
    (lowest index *within the choice vector*) wins, which is Vöcking's rule
    when the choice vector is ordered across subtables.
    """
    candidate_loads = loads[choices]
    least = candidate_loads.min()
    ties = np.flatnonzero(candidate_loads == least)
    if tie_break == "left" or ties.size == 1:
        pick = ties[0]
    else:
        pick = ties[int(rng.integers(0, ties.size))]
    chosen = int(choices[pick])
    loads[chosen] += 1
    return chosen


def simulate_single_trial(
    scheme: ChoiceScheme,
    n_balls: int,
    *,
    seed: int | np.random.Generator | None = None,
    tie_break: TieBreak = "random",
    return_loads: bool = False,
) -> LoadDistribution | np.ndarray:
    """Throw ``n_balls`` balls using ``scheme``; return the load distribution.

    Parameters
    ----------
    scheme:
        Choice generator; its ``n_bins`` defines the table size.
    n_balls:
        Number of balls to place sequentially.
    seed:
        Seed or generator for all randomness (choices and tie-breaking).
    tie_break:
        ``"random"`` (paper's standard scheme) or ``"left"`` (Vöcking).
    return_loads:
        If True, return the raw per-bin load vector instead of the
        aggregated :class:`~repro.types.LoadDistribution`.
    """
    if n_balls < 0:
        raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")
    rng = default_generator(seed)
    loads = np.zeros(scheme.n_bins, dtype=np.int64)
    for _ in range(n_balls):
        choices = scheme.single(rng)
        place_ball(loads, choices, rng, tie_break)
    if return_loads:
        return loads
    return load_distribution(
        trial_histograms(loads[None]), scheme.n_bins, n_balls
    )


def simulate_supermarket_reference(run: SupermarketRun) -> QueueingResult:
    """The supermarket model as a scalar decision loop — the executable spec.

    Draws ``run``'s schedule through
    :func:`~repro.kernels.supermarket.draw_events` and decides its events
    one at a time: an arrival joins the candidate with the smallest
    ``(length, tie key, queue)`` (the first shortest in choice order under
    ``tie_break="left"``), a tick serves its queue if the queue is busy.
    Each decided block goes to the
    :class:`~repro.kernels.supermarket.SupermarketAccumulator` the kernel
    also uses.  :func:`repro.queueing.simulate_supermarket` must return
    bit-identical results for every run of a batch and leave each
    generator in the same state.
    """
    rng = default_generator(run.seed)
    length = [0] * run.scheme.n_bins
    left = run.tie_break == "left"
    acc = SupermarketAccumulator(run)
    now = 0.0
    while True:
        block = draw_events(run, rng, now)
        rows, ties = block.choices.tolist(), block.ties.tolist()
        ticks = iter(block.ticks.tolist())
        target, before = [], []
        a = 0
        for is_arrival in block.arrival.tolist():
            if is_arrival:
                row, tie = rows[a], ties[a]
                a += 1
                if left:
                    q = min(row, key=length.__getitem__)
                else:
                    q = min(
                        ((length[q] << TIE_BITS) | t, q) for q, t in zip(row, tie)
                    )[1]
                before.append(length[q])
                length[q] += 1
            else:
                q = next(ticks)
                before.append(length[q])
                if length[q]:
                    length[q] -= 1
            target.append(q)
        acc.add(
            block, np.array(target, np.int64), np.array(before, np.int64)
        )
        if block.last:
            return acc.result()
        now = float(block.times[-1])


def sequential_packed_reference(
    pc: np.ndarray, layout: KernelLayout
) -> np.ndarray:
    """Sequentially place the packed candidates of ``pc``; return loads.

    Pure-Python oracle for the kernel backends: same key semantics
    (minimum of ``load << key_shift | packed`` with first-minimum ties),
    one ball at a time.  Returns the ``(trials, n_bins)`` int64 load table.
    """
    d, trials, steps_p = pc.shape
    steps = steps_p - 1
    bins_p = layout.bins_p
    mask = int(layout.cidx_mask)
    key_shift = layout.key_shift
    loads = np.zeros(trials * bins_p, dtype=np.int64)
    for t in range(trials):
        for b in range(steps):
            best_key = None
            best_ci = -1
            for j in range(d):
                p = int(pc[j, t, b])
                ci = p & mask
                key = (int(loads[ci]) << key_shift) + p
                if best_key is None or key < best_key:
                    best_key = key
                    best_ci = ci
            loads[best_ci] += 1
    return loads.reshape(trials, bins_p)[:, : layout.n_bins]
