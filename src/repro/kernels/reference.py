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
- :func:`simulate_supermarket_reference` — the supermarket CTMC written
  as the plainest possible event loop over the draw-stream contract of
  :mod:`repro.kernels.supermarket`.  ``tests/data/golden_supermarket.json``
  pins its outputs, and every supermarket backend is asserted bit-identical
  to it for the same seed.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.errors import ConfigurationError, StabilityError
from repro.hashing.base import ChoiceScheme
from repro.kernels.blockrng import (
    CHOICE_BLOCK,
    EVENT_BLOCK,
    TIE_BITS,
    BlockedDraws,
    refill_choice_block,
    refill_event_block,
)
from repro.kernels.generate import KernelLayout
from repro.kernels.supermarket import (
    SupermarketStats,
    check_queue_packing,
    finalize_stats,
    stability_message,
    validate_supermarket_args,
)
from repro.rng import default_generator
from repro.types import LoadDistribution, QueueingResult

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
    max_load = int(loads.max(initial=0))
    counts = np.bincount(loads, minlength=max_load + 1)
    return LoadDistribution(
        n_bins=scheme.n_bins,
        n_balls=n_balls,
        trials=1,
        counts=counts,
        max_load_per_trial=np.array([max_load]),
    )


def simulate_supermarket_reference(
    scheme: ChoiceScheme,
    lam: float,
    sim_time: float,
    *,
    burn_in: float = 0.0,
    seed: int | np.random.Generator | None = None,
    max_total_jobs: int | None = None,
    track_tails: bool = False,
    tie_break: TieBreak = "random",
) -> QueueingResult:
    """Supermarket CTMC as the plainest event loop — the executable spec.

    Implements the draw-stream contract of :mod:`repro.kernels.blockrng`
    (and the state-evolution contract of
    :mod:`repro.kernels.supermarket`) one event at a time through
    :class:`~repro.kernels.blockrng.BlockedDraws` — the executable form of
    the contract, with no performance tricks.  Every backend reachable
    through :func:`repro.queueing.simulate_supermarket` must be
    bit-identical to this function for the same seed, *and* leave the
    generator in the same state (callers reuse one generator across
    sequential runs).
    """
    validate_supermarket_args(lam, sim_time, burn_in, tie_break)
    rng = default_generator(seed)
    n = scheme.n_bins
    if max_total_jobs is None:
        max_total_jobs = 50 * n
    check_queue_packing(max_total_jobs)
    left_ties = tie_break == "left"
    arrival_rate = lam * n

    queue_len = np.zeros(n, dtype=np.int64)
    fifos: list[list[float]] = [[] for _ in range(n)]
    busy: list[int] = []  # dense busy slots; departures sample an index

    now = 0.0
    jobs = 0
    s_count = 0
    s_sum = 0.0
    area = 0.0
    busy_area = 0.0
    n_arrivals = 0
    n_departures = 0

    if track_tails:
        counts = np.zeros(64, dtype=np.int64)
        counts[0] = n
        tail_area = np.zeros(64, dtype=np.float64)
        last_t = np.zeros(64, dtype=np.float64)

    def _flush_level(lev: int, t: float) -> None:
        start = max(float(last_t[lev]), burn_in)
        if t > start:
            tail_area[lev] += counts[lev] * (t - start)
        last_t[lev] = t

    # Cursors start exhausted and refill lazily — the block contract of
    # repro.kernels.blockrng, consumed through its reference cursor.
    events = BlockedDraws(EVENT_BLOCK, lambda: refill_event_block(rng))
    arrivals = BlockedDraws(CHOICE_BLOCK, lambda: refill_choice_block(scheme, rng))

    while True:
        b = len(busy)
        rate = arrival_rate + b
        expo, event_u = events.take()
        t_new = now + expo / rate
        if t_new >= sim_time:
            break  # terminating event is never committed
        x = event_u * rate
        start = max(now, burn_in)
        if t_new > start:
            dt = t_new - start
            area += jobs * dt
            busy_area += b * dt
        now = t_new
        if x < arrival_rate:  # arrival
            choices, tie_keys = arrivals.take()
            lengths = queue_len[choices]
            if left_ties:
                target = int(choices[np.argmin(lengths)])
            else:
                keys = (lengths << TIE_BITS) | tie_keys
                target = int(choices[np.argmin(keys)])
            fifos[target].append(now)
            if queue_len[target] == 0:
                busy.append(target)
            queue_len[target] += 1
            jobs += 1
            n_arrivals += 1
            if track_tails:
                new_len = int(queue_len[target])
                if new_len + 1 >= len(counts):
                    counts = np.concatenate([counts, np.zeros_like(counts)])
                    tail_area = np.concatenate(
                        [tail_area, np.zeros_like(tail_area)]
                    )
                    last_t = np.concatenate([last_t, np.zeros_like(last_t)])
                _flush_level(new_len - 1, now)
                _flush_level(new_len, now)
                counts[new_len - 1] -= 1
                counts[new_len] += 1
            if jobs > max_total_jobs:
                raise StabilityError(stability_message(max_total_jobs, now))
        else:  # departure: x - arrival_rate is uniform on [0, b)
            slot = int(x - arrival_rate)
            if slot >= b:
                slot = b - 1
            q = busy[slot]
            t_arr = fifos[q].pop(0)
            if t_arr >= burn_in:
                s_count += 1
                s_sum += now - t_arr
            queue_len[q] -= 1
            if queue_len[q] == 0:  # swap-remove busy slot
                busy[slot] = busy[-1]
                busy.pop()
            jobs -= 1
            n_departures += 1
            if track_tails:
                old_len = int(queue_len[q]) + 1
                _flush_level(old_len - 1, now)
                _flush_level(old_len, now)
                counts[old_len] -= 1
                counts[old_len - 1] += 1

    start = max(now, burn_in)
    if sim_time > start:
        dt = sim_time - start
        area += jobs * dt
        busy_area += len(busy) * dt
    tails_out = None
    if track_tails:
        for lev in range(len(counts)):
            _flush_level(lev, sim_time)
        tails_out = tail_area
    stats = SupermarketStats(
        s_count=s_count,
        s_sum=float(s_sum),
        area=float(area),
        busy_area=float(busy_area),
        n_arrivals=n_arrivals,
        n_departures=n_departures,
        tail_area=tails_out,
    )
    return finalize_stats(stats, n=n, sim_time=sim_time, burn_in=burn_in)


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
