"""Supermarket-model CTMC kernel: shared draw-stream contract + numpy backend.

CTMC formulation
----------------
With exp(1) service at every queue the system state is a continuous-time
Markov chain: an **arrival** at rate ``λn`` draws ``d`` queues from the
choice scheme and joins the shortest (ties by random key or leftmost); a
**departure** at rate ``b`` (the busy-queue count) completes the head job
of a uniformly random busy queue.  No event heap is needed — the simulator
repeatedly draws an ``Exp(λn + b)`` inter-event time and an event-type
coin.

Draw-stream contract (bit-identity with the oracle)
---------------------------------------------------
Both implementations — the oracle loop in :mod:`repro.kernels.reference`
and the blocked numpy loop here — consume the generator through
the unified block contract of :mod:`repro.kernels.blockrng`: lazily
refilled *event blocks* (:func:`~repro.kernels.blockrng.refill_event_block`)
and *choice blocks* (:func:`~repro.kernels.blockrng.refill_choice_block`),
cursors initially exhausted.  Results are therefore **bit-identical** for
the same seed and the generator is left in the same state afterwards
(callers reuse one generator across sequential runs).  Tie keys are drawn
even under ``tie_break="left"`` (and ignored), so the stream does not
depend on the tie rule.

Per event, with ``rate = λn + b``: the inter-event time is
``expo[i] / rate`` (a division — backends must not substitute a
reciprocal multiply) and the **fused event coin** is ``x = evu[i] * rate``:
an arrival iff ``x < λn``, otherwise a departure from busy slot
``j = int(x - λn)`` (clamped to ``b - 1``; conditionally on ``x ≥ λn``,
``x - λn`` is uniform on ``[0, b)``).  This replaces both the event-type
coin and a separate busy-queue index draw.

State-evolution contract
------------------------
The busy set is a dense array with append-on-busy and swap-remove-on-empty
(slot ``j`` is filled by the last element); since departures sample busy
*slots*, every backend must replicate this exact evolution.  An event
whose time lands at or beyond ``sim_time`` terminates the run **without
committing** (the clock, counters and integrals keep their pre-event
values); the population/busy/tail integrals are then flushed over
``[max(now, burn_in), sim_time]``.  All float accumulations are plain
sequential scalar adds in event order — the canonical order vectorized
variants must reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, StabilityError
from repro.hashing.base import ChoiceScheme
from repro.kernels.blockrng import (
    CHOICE_BLOCK as _CHOICE_BLOCK,
)
from repro.kernels.blockrng import (
    EVENT_BLOCK as _EVENT_BLOCK,
)
from repro.kernels.blockrng import (
    TIE_BITS as _TIE_BITS,
)
from repro.kernels.blockrng import (
    refill_choice_block,
    refill_event_block,
)
from repro.kernels.packing import (
    INT64_VALUE_BITS,
    check_packed_fields,
    field_width,
)
from repro.types import QueueingResult

__all__ = [
    "SupermarketStats",
    "check_queue_packing",
    "finalize_stats",
    "simulate_supermarket_numpy",
    "stability_message",
    "validate_supermarket_args",
]

def check_queue_packing(max_total_jobs: int) -> None:
    """Guard the ``queue_len << TIE_BITS | tie`` packing against overflow.

    A queue can grow to ``max_total_jobs`` before the stability valve
    trips, so its length field needs ``field_width(max_total_jobs + 1)``
    bits; together with the tie key the packed comparison key must fit
    int64's 63 value bits, else the argmin would be silently corrupted.
    Raises :class:`~repro.errors.ConfigurationError` at the boundary
    (``max_total_jobs >= 2**43`` with the default 20 tie bits).
    """
    check_packed_fields(
        {
            "queue_len": field_width(max_total_jobs + 1),
            "tie": _TIE_BITS,
        },
        carrier_bits=INT64_VALUE_BITS,
        context=f"supermarket queue key (max_total_jobs={max_total_jobs})",
    )


@dataclass(frozen=True)
class SupermarketStats:
    """Raw accumulators of one supermarket run, identical across backends.

    Attributes
    ----------
    s_count, s_sum:
        Count of and summed sojourn times over departures whose job
        *arrived* at or after burn-in (``mean = s_sum / s_count``).
    area:
        Time integral of the total job population over
        ``[burn_in, sim_time]``.
    busy_area:
        Time integral of the busy-queue count over the same window.
    n_arrivals, n_departures:
        Event counts over the whole run (burn-in included).
    tail_area:
        ``tail_area[i]`` = time integral of the number of queues with
        length exactly ``i`` over the window; ``None`` unless tails were
        tracked.
    """

    s_count: int
    s_sum: float
    area: float
    busy_area: float
    n_arrivals: int
    n_departures: int
    tail_area: np.ndarray | None = None


def validate_supermarket_args(
    lam: float, sim_time: float, burn_in: float, tie_break: str
) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` on bad parameters.

    Shared by the kernel driver and the reference oracle so both reject
    inputs with identical messages.
    """
    if not 0.0 < lam < 1.0:
        raise ConfigurationError(f"lambda must be in (0, 1), got {lam}")
    if sim_time <= 0:
        raise ConfigurationError(f"sim_time must be positive, got {sim_time}")
    if not 0.0 <= burn_in < sim_time:
        raise ConfigurationError(
            f"burn_in must lie in [0, sim_time); got {burn_in} vs {sim_time}"
        )
    if tie_break not in ("random", "left"):
        raise ConfigurationError(
            f"tie_break must be 'random' or 'left', got {tie_break!r}"
        )


def stability_message(max_total_jobs: int, now: float) -> str:
    """The :class:`~repro.errors.StabilityError` text shared by backends."""
    return (
        f"population exceeded {max_total_jobs} jobs at t={now:.1f}; "
        "system appears unstable"
    )


def finalize_stats(
    stats: SupermarketStats, *, n: int, sim_time: float, burn_in: float
) -> QueueingResult:
    """Convert raw accumulators into a :class:`~repro.types.QueueingResult`.

    Shared by every backend so the derived quantities (means, fractions,
    tail post-processing) are computed by one code path and cannot drift.
    """
    window = sim_time - burn_in
    tails = None
    if stats.tail_area is not None:
        fractions = stats.tail_area / (window * n)
        # Convert exact-length time fractions to >= i tail fractions.
        tails = np.cumsum(fractions[::-1])[::-1]
        tails = np.concatenate(([1.0], tails[1:]))
        nonzero = np.flatnonzero(tails > 1e-12)
        tails = tails[: (nonzero[-1] + 2 if nonzero.size else 1)]
    return QueueingResult(
        mean_sojourn_time=(
            stats.s_sum / stats.s_count if stats.s_count else float("nan")
        ),
        completed_jobs=stats.s_count,
        mean_queue_length=stats.area / window / n,
        sim_time=sim_time,
        tail_fractions=tails,
        n_arrivals=stats.n_arrivals,
        n_departures=stats.n_departures,
        busy_fraction=stats.busy_area / (window * n),
    )


def simulate_supermarket_numpy(
    scheme: ChoiceScheme,
    lam: float,
    sim_time: float,
    burn_in: float,
    rng: np.random.Generator,
    max_total_jobs: int,
    track_tails: bool,
    left_ties: bool,
) -> SupermarketStats:
    """Blocked-draw event loop: the numpy backend of the supermarket kernel.

    Arguments are pre-validated by :func:`repro.queueing.simulate_supermarket`.
    Randomness is consumed per the module contract; between refills the loop
    runs on plain Python scalars and lists (``.tolist()``-ed blocks, packed
    ``length << TIE_BITS`` queue keys, dense busy list, per-queue FIFO lists
    with a lazy head cursor), which on a 1-core host beats numpy temporaries
    for this irreducibly sequential chain — see ``docs/performance.md``.
    """
    n = scheme.n_bins
    d = scheme.d
    ar = lam * n
    one = 1 << _TIE_BITS  # packed-length increment

    qkey = [0] * n  # queue length << TIE_BITS
    fifos: list[list[float]] = [[] for _ in range(n)]
    heads = [0] * n
    busy: list[int] = []  # dense busy-queue slots; departures index this

    now = 0.0
    jobs = 0
    b = 0
    s_count = 0
    s_sum = 0.0
    area = 0.0
    busy_area = 0.0
    n_arr = 0
    n_dep = 0

    if track_tails:
        counts = [0] * 64
        counts[0] = n
        tail_area = [0.0] * 64
        last_t = [0.0] * 64

    expo: list[float] = []
    evu: list[float] = []
    ev_i = _EVENT_BLOCK
    cb: list[list[int]] = []
    tb: list[list[int]] = []
    ch_i = _CHOICE_BLOCK

    while True:
        if ev_i == _EVENT_BLOCK:
            expo_a, evu_a = refill_event_block(rng)
            expo = expo_a.tolist()
            evu = evu_a.tolist()
            ev_i = 0
        rate = ar + b
        t_new = now + expo[ev_i] / rate
        if t_new >= sim_time:
            break
        x = evu[ev_i] * rate
        ev_i += 1
        # Integrate population/busy count over [max(now, burn_in), t_new]
        # at their pre-event values.
        start = now if now > burn_in else burn_in
        if t_new > start:
            dt = t_new - start
            area += jobs * dt
            busy_area += b * dt
        now = t_new
        if x < ar:  # arrival
            if ch_i == _CHOICE_BLOCK:
                cb_a, tb_a = refill_choice_block(scheme, rng)
                cb = cb_a.tolist()
                tb = tb_a.tolist()
                ch_i = 0
            row = cb[ch_i]
            if left_ties:
                tgt = row[0]
                bk = qkey[tgt]
                for j in range(1, d):
                    q = row[j]
                    k = qkey[q]
                    if k < bk:
                        bk = k
                        tgt = q
            else:
                tie = tb[ch_i]
                tgt = row[0]
                bk = qkey[tgt] | tie[0]
                for j in range(1, d):
                    q = row[j]
                    k = qkey[q] | tie[j]
                    if k < bk:
                        bk = k
                        tgt = q
            ch_i += 1
            fifos[tgt].append(now)
            k = qkey[tgt]
            if k < one:  # was empty -> becomes busy
                busy.append(tgt)
                b += 1
            qkey[tgt] = k + one
            jobs += 1
            n_arr += 1
            if track_tails:
                new_len = (k >> _TIE_BITS) + 1
                if new_len + 1 >= len(counts):
                    grow = len(counts)
                    counts.extend([0] * grow)
                    tail_area.extend([0.0] * grow)
                    last_t.extend([0.0] * grow)
                for lev in (new_len - 1, new_len):
                    s = last_t[lev]
                    if s < burn_in:
                        s = burn_in
                    if now > s:
                        tail_area[lev] += counts[lev] * (now - s)
                    last_t[lev] = now
                counts[new_len - 1] -= 1
                counts[new_len] += 1
            if jobs > max_total_jobs:
                raise StabilityError(stability_message(max_total_jobs, now))
        else:  # departure from busy slot j
            j = int(x - ar)
            if j >= b:
                j = b - 1
            q = busy[j]
            f = fifos[q]
            h = heads[q]
            t_arr = f[h]
            h += 1
            if h > 32:
                del f[:h]
                h = 0
            heads[q] = h
            if t_arr >= burn_in:
                s_count += 1
                s_sum += now - t_arr
            k = qkey[q] - one
            qkey[q] = k
            if k < one:  # emptied -> swap-remove from busy set
                b -= 1
                last = busy[b]
                busy[j] = last
                busy.pop()
            jobs -= 1
            n_dep += 1
            if track_tails:
                old_len = (k >> _TIE_BITS) + 1
                for lev in (old_len - 1, old_len):
                    s = last_t[lev]
                    if s < burn_in:
                        s = burn_in
                    if now > s:
                        tail_area[lev] += counts[lev] * (now - s)
                    last_t[lev] = now
                counts[old_len] -= 1
                counts[old_len - 1] += 1

    # Final flush at sim_time (the terminating event was never committed).
    start = now if now > burn_in else burn_in
    if sim_time > start:
        dt = sim_time - start
        area += jobs * dt
        busy_area += b * dt
    tails_out = None
    if track_tails:
        for lev in range(len(counts)):
            s = last_t[lev]
            if s < burn_in:
                s = burn_in
            if sim_time > s:
                tail_area[lev] += counts[lev] * (sim_time - s)
            last_t[lev] = sim_time
        tails_out = np.asarray(tail_area, dtype=np.float64)
    return SupermarketStats(
        s_count=s_count,
        s_sum=s_sum,
        area=area,
        busy_area=busy_area,
        n_arrivals=n_arr,
        n_departures=n_dep,
        tail_area=tails_out,
    )
