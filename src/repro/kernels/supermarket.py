"""Supermarket-model kernel: a pre-drawn schedule, windowed commits, and
the accumulator the kernel shares with the oracle.

Uniformized chain
-----------------
With exp(1) service at every queue the queue lengths form a
continuous-time Markov chain.  Uniformized at the constant rate
``(1 + λ)n``, each event is an **arrival** with probability ``λ/(1+λ)``
(it draws ``d`` queues from the choice scheme and joins the shortest,
ties by random key, then by queue, or leftmost) and otherwise a
**service tick** at a uniform queue, which completes that queue's head
job or does nothing if the queue is empty.  Every busy queue still
completes jobs at rate 1, so the law is the supermarket model's, and no
draw reads the state.

Schedule (the draw contract)
----------------------------
Each run owns its generator and draws its events in blocks of
:func:`block_size` (``8n``, within ``[4096, 65536]``) through
:func:`draw_events`: ``rng.exponential`` for the gaps (divided by the
rate, summed in event order), ``rng.random`` for the kinds,
``scheme.batch`` and ``rng.integers`` for the arrivals' candidate rows
and ``TIE_BITS``-wide tie keys (drawn under ``tie_break="left"`` too),
then ``rng.integers`` for the ticks' queues.  The first event at or past
``sim_time`` ends the run and is never committed.  The kernel and the
oracle (:func:`repro.kernels.reference.simulate_supermarket_reference`)
both draw through this function and account through
:class:`SupermarketAccumulator`, so they agree bit for bit and leave each
generator in the same state; a run's draws never depend on the other
runs of its batch.

Windowed commits
----------------
Only an arrival's shortest-of-``d`` pick and a tick's busy check read
state.  :func:`simulate_supermarket_numpy` lays a batch's runs side by
side on one flat queue array (run ``r`` owns ``[off_r, off_r + n_r)``;
a ``d``-row pads to the batch's widest ``d`` by repeating its last
candidate and tie key) and keeps, per run, a list of the ``W`` earliest
events not yet committed.  A pass computes every pending event's pick
against the current lengths and commits

- a tick once no earlier pending event touches its queue;
- an arrival once no earlier pending event touches the queue it picks
  and no earlier pending *tick* touches any of its candidates.

An arrival touches its ``d`` candidates, a tick its queue; two stamp
scatters give each queue its earliest pending event and its earliest
pending tick.  The arrival rule is exact: until the arrival's turn,
the earlier events can only lengthen its other candidates (no tick
touches them), so their keys only grow and the pick stays the minimum,
and its picked queue keeps its current length.  The commits of a pass
write distinct queues (a later event that writes a queue an earlier
pending event touches waits), so each one decides exactly as the
sequential loop would, and a later commit never writes a queue an
earlier waiting event reads.  Each run's waiting events, in order, and
the next events of its block refill its list.  A run's block is
accounted once all of its events have committed, and only then is its
next block drawn, so the kernel holds one bounded block per run.
``W`` only schedules (:func:`window_size`); see ``docs/performance.md``.

Accounting
----------
:class:`SupermarketAccumulator` takes each block's per-event target and
the target's length before the event.  A queue's ``k``-th arrival leaves
at its ``k``-th departure (FIFO), so a stable sort by queue pairs every
departure with its arrival; sojourns count when the job arrived at or
after ``burn_in``.  An event at time ``t`` changes the number of queues
holding at least ``i`` jobs for the rest of ``[max(t, burn_in),
sim_time]``, which gives the population, busy and tail areas in one
weighted ``bincount`` per block.  The stability valve raises
:class:`~repro.errors.StabilityError` at the first arrival that lifts the
population past ``max_total_jobs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, StabilityError
from repro.hashing.base import ChoiceScheme
from repro.kernels.blockrng import TIE_BITS as _TIE_BITS
from repro.kernels.packing import (
    INT64_VALUE_BITS,
    check_packed_fields,
    field_width,
)
from repro.types import QueueingResult

__all__ = [
    "EventBlock",
    "SupermarketAccumulator",
    "SupermarketRun",
    "block_size",
    "check_queue_packing",
    "draw_events",
    "simulate_supermarket_numpy",
]

_TIES = 1 << _TIE_BITS


def check_queue_packing(max_total_jobs: int, queues: int = 1) -> None:
    """Guard the ``queue_len << TIE_BITS | tie`` packing against overflow.

    A queue can grow to ``max_total_jobs`` before the stability valve
    trips, so its length field needs ``field_width(max_total_jobs + 1)``
    bits; together with the tie key (and, in the kernel, the id of one of
    ``queues`` queues) the packed comparison key must fit int64's 63
    value bits, else the argmin would be silently corrupted.  Raises
    :class:`~repro.errors.ConfigurationError` at the boundary
    (``max_total_jobs >= 2**43`` with the default 20 tie bits and one
    queue).
    """
    check_packed_fields(
        {
            "queue_len": field_width(max_total_jobs + 1),
            "tie": _TIE_BITS,
            "queue": field_width(queues),
        },
        carrier_bits=INT64_VALUE_BITS,
        context=f"supermarket queue key (max_total_jobs={max_total_jobs})",
    )


def block_size(n: int) -> int:
    """Events per schedule block of a run on ``n`` queues."""
    return min(65536, max(4096, 8 * n))


@dataclass(frozen=True)
class SupermarketRun:
    """One run of the supermarket model: ``n`` FIFO queues, Poisson(λn)
    arrivals, exp(1) service.

    Attributes
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
        (the paper used 1000), and the time averages start here.
    seed:
        Seed or generator.  A passed-in generator is left in the same
        state as after the oracle run, so callers may run several
        simulations off one generator, one call after another.
    max_total_jobs:
        Safety valve: abort with :class:`~repro.errors.StabilityError` if
        the population exceeds this (defaults to ``50 · n``), which can
        only happen outside the stability region.
    track_tails:
        Return the time-averaged fraction of queues with at least ``i``
        jobs (after burn-in) as ``result.tail_fractions``, comparable to
        the fluid equilibrium ``π_i``.
    tie_break:
        ``"random"`` (the standard model) or ``"left"``: join the first
        shortest candidate in choice order, Vöcking's rule with a
        partitioned choice scheme.

    Invalid parameters raise :class:`~repro.errors.ConfigurationError`
    here, before anything runs.
    """

    scheme: ChoiceScheme
    lam: float
    sim_time: float
    burn_in: float = 0.0
    seed: int | np.random.Generator | None = None
    max_total_jobs: int | None = None
    track_tails: bool = False
    tie_break: str = "random"

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise ConfigurationError(f"lambda must be in (0, 1), got {self.lam}")
        if not 0.0 < self.sim_time < math.inf:
            raise ConfigurationError(
                f"sim_time must be positive and finite, got {self.sim_time}"
            )
        if not 0.0 <= self.burn_in < self.sim_time:
            raise ConfigurationError(
                f"burn_in must lie in [0, sim_time); got {self.burn_in} vs "
                f"{self.sim_time}"
            )
        if self.tie_break not in ("random", "left"):
            raise ConfigurationError(
                f"tie_break must be 'random' or 'left', got {self.tie_break!r}"
            )
        # A block's arrivals may overshoot the valve before it is checked.
        n = self.scheme.n_bins
        check_queue_packing(self.job_cap + block_size(n), n)

    @property
    def job_cap(self) -> int:
        """The stability valve: ``max_total_jobs``, else ``50 · n``."""
        if self.max_total_jobs is None:
            return 50 * self.scheme.n_bins
        return self.max_total_jobs


@dataclass(frozen=True)
class EventBlock:
    """One block of a run's schedule, cut at the horizon.

    ``times`` are the event times (all below ``sim_time``) and
    ``arrival`` their kinds; ``choices`` and ``ties`` are the arrivals'
    ``(a, d)`` candidate rows and tie keys in event order, ``ticks`` the
    ticks' queues.  ``last`` is set when the horizon falls inside the
    block.
    """

    times: np.ndarray
    arrival: np.ndarray
    choices: np.ndarray
    ties: np.ndarray
    ticks: np.ndarray
    last: bool


def draw_events(
    run: SupermarketRun, rng: np.random.Generator, now: float
) -> EventBlock:
    """The next :func:`block_size` events of ``run`` after time ``now``."""
    n, d = run.scheme.n_bins, run.scheme.d
    size = block_size(n)
    gaps = rng.exponential(1.0, size) / ((1.0 + run.lam) * n)
    gaps[0] += now
    times = np.cumsum(gaps)
    arrival = rng.random(size) < run.lam / (1.0 + run.lam)
    n_arr = int(np.count_nonzero(arrival))
    choices = run.scheme.batch(n_arr, rng)
    ties = rng.integers(0, _TIES, size=(n_arr, d), dtype=np.int64)
    ticks = rng.integers(0, n, size=size - n_arr, dtype=np.int64)
    k = int(np.searchsorted(times, run.sim_time))
    if k == size:
        return EventBlock(times, arrival, choices, ties, ticks, False)
    a = int(np.count_nonzero(arrival[:k]))
    return EventBlock(
        times[:k], arrival[:k], choices[:a], ties[:a], ticks[: k - a], True
    )


class SupermarketAccumulator:
    """A run's statistics, fed one fully decided block at a time.

    Shared by the kernel and the oracle, so every float is summed in
    the same order by both.  ``level_area[i]`` (``i >= 1``) is the time
    integral over ``[burn_in, sim_time]`` of the number of queues holding
    at least ``i`` jobs; ``queued_q``/``queued_t`` are the queue and
    arrival time of every job in the system, sorted by queue and FIFO
    within a queue.
    """

    def __init__(self, run: SupermarketRun) -> None:
        self.run = run
        self.jobs = 0
        # Queue ids sort by radix when they fit 16 bits.
        qtype = np.uint16 if run.scheme.n_bins <= 1 << 16 else np.int64
        self.queued_q = np.empty(0, qtype)
        self.queued_t = np.empty(0, np.float64)
        self.s_count = 0
        self.s_sum = 0.0
        self.n_arrivals = 0
        self.n_departures = 0
        self.level_area = np.zeros(64)

    def add(
        self, block: EventBlock, target: np.ndarray, before: np.ndarray
    ) -> None:
        """Account ``block``: event ``k`` went to queue ``target[k]``,
        which held ``before[k]`` jobs just before it."""
        run = self.run
        times, arrival = block.times, block.arrival
        served = (before > 0) & ~arrival
        step = arrival.astype(np.int64)
        step -= served
        jobs = np.cumsum(step)
        jobs += self.jobs
        if jobs.size and jobs.max() > run.job_cap:
            now = times[np.flatnonzero(jobs > run.job_cap)[0]]
            raise StabilityError(
                f"population exceeded {run.job_cap} jobs at t={now:.1f}; "
                "system appears unstable"
            )
        self.jobs = int(jobs[-1]) if jobs.size else self.jobs
        weight = run.sim_time - np.maximum(times, run.burn_in)
        weight *= step
        area = np.bincount(before + arrival, weights=weight)
        if area.size >= self.level_area.size:
            grown = np.zeros(2 * area.size)
            grown[: self.level_area.size] = self.level_area
            self.level_area = grown
        self.level_area[: area.size] += area
        # FIFO: a queue's k-th departure takes its k-th queued job.
        qtype = self.queued_q.dtype
        q_in = np.concatenate((self.queued_q, target[arrival].astype(qtype)))
        t_in = np.concatenate((self.queued_t, times[arrival]))
        order = np.argsort(q_in, kind="stable")
        q_in, t_in = q_in[order], t_in[order]
        q_out = target[served].astype(qtype)
        order = np.argsort(q_out, kind="stable")
        q_out, t_out = q_out[order], times[served][order]
        match = (
            np.searchsorted(q_in, q_out)
            + np.arange(q_out.size)
            - np.searchsorted(q_out, q_out)
        )
        arrived = t_in[match]
        counted = arrived >= run.burn_in
        self.s_count += int(np.count_nonzero(counted))
        self.s_sum += float((t_out - arrived)[counted].sum())
        left = np.ones(q_in.size, bool)
        left[match] = False
        self.queued_q, self.queued_t = q_in[left], t_in[left]
        self.n_arrivals += int(np.count_nonzero(arrival))
        self.n_departures += q_out.size

    def result(self) -> QueueingResult:
        """The run's :class:`~repro.types.QueueingResult`."""
        run = self.run
        scale = (run.sim_time - run.burn_in) * run.scheme.n_bins
        tails = None
        if run.track_tails:
            tails = self.level_area / scale
            tails[0] = 1.0
            nonzero = np.flatnonzero(tails > 1e-12)
            tails = tails[: nonzero[-1] + 2]
        return QueueingResult(
            mean_sojourn_time=(
                self.s_sum / self.s_count if self.s_count else float("nan")
            ),
            completed_jobs=self.s_count,
            mean_queue_length=float(self.level_area[1:].sum()) / scale,
            sim_time=run.sim_time,
            tail_fractions=tails,
            n_arrivals=self.n_arrivals,
            n_departures=self.n_departures,
            busy_fraction=float(self.level_area[1]) / scale,
        )


def window_size(runs: list[SupermarketRun]) -> int:
    """Pending events per run: twice the largest run's ``n/d²`` (about
    the count of leading events whose queues are pairwise disjoint),
    within ``[64, 256]``.  Scheduling only; results never depend on it."""
    widest = max(r.scheme.n_bins // r.scheme.d**2 for r in runs)
    return min(256, max(64, 2 * widest))


def simulate_supermarket_numpy(
    runs: list[SupermarketRun], rngs: list[np.random.Generator]
) -> tuple[list[QueueingResult], int]:
    """Run a batch with windowed commits; returns the results in batch
    order and the number of passes.

    Arguments are checked by :func:`repro.queueing.simulate_supermarket`.
    Every run is simulated to its horizon; if any trips its stability
    valve, the first such run in batch order raises its
    :class:`~repro.errors.StabilityError` at the end.
    """
    n_runs = len(runs)
    width = max(r.scheme.d for r in runs)
    window = window_size(runs)
    off = np.cumsum([0] + [r.scheme.n_bins for r in runs])
    # Two queues past the runs' own: arrivals write their tick stamp to
    # ``spare``, and every padding slot's candidates are ``pad``, whose
    # tick stamp stays below every position, so padding never commits.
    spare, pad = int(off[-1]), int(off[-1]) + 1
    check_queue_packing(
        max(r.job_cap + block_size(r.scheme.n_bins) for r in runs), pad + 1
    )
    # A pending event's key on candidate q is length << shift | tie << qbits
    # | q, so the minimum names the queue it picks.
    qbits = field_width(pad + 1)
    shift = _TIE_BITS + qbits
    one = 1 << shift
    length_mask = -one
    queue_mask = (1 << qbits) - 1
    qkey = np.zeros(pad + 1, np.int64)  # length << shift
    # Each queue's earliest pending event and earliest pending tick, as
    # window positions; ``window`` in ``tick_stamp`` means none.
    stamp = np.zeros(pad + 1, np.int32)
    tick_stamp = np.full(pad + 1, window, np.int32)
    tick_stamp[pad] = -1
    # Run r's block lives in event rows [base_r, end_r), followed by
    # ``window + 1`` padding rows.
    sizes = [block_size(r.scheme.n_bins) + window + 1 for r in runs]
    base = np.cumsum([0] + sizes[:-1]).astype(np.intp)
    n_rows = sum(sizes)
    field = np.full((n_rows, width), pad, np.int64)  # tie << qbits | queue
    tick_q = np.full(n_rows, spare, np.intp)  # a tick's queue, else spare
    delta = np.empty(n_rows, np.int64)  # +one arrival, -one tick
    picked = np.empty(n_rows, np.int64)  # each committed event's minimum key
    # Row r of ``rows`` holds run r's pending events in order (its first
    # ``window`` entries), then the block's next ``window + 1`` events.
    rows = np.empty((n_runs, 2 * window + 1), np.intp)
    pending = rows[:, :window]
    # ``order`` lists the pending events latest first (column c holds
    # position window - 1 - c), so each stamp scatter leaves a queue
    # holding its earliest pending position.
    order = np.empty((n_runs, window), np.intp)
    pos = np.tile(np.arange(window - 1, -1, -1, dtype=np.int32), (n_runs, 1))
    ramp = np.arange(window + 1, dtype=np.intp)
    stamp_vals = np.repeat(pos.reshape(-1), width)
    tick_vals = pos.reshape(-1)
    # Scratch reused every pass; the column views index its candidates.
    cq = np.empty((n_runs, window, width), np.intp)
    key = np.empty((n_runs, window, width), np.int64)
    tie = np.empty((n_runs, window, width), np.int64)
    tsc = np.empty((n_runs, window, width), np.int32)
    kmin = np.empty((n_runs, window), np.int64)
    pick = np.empty((n_runs, window), np.intp)
    tq = np.empty((n_runs, window), np.intp)
    tmin = np.empty((n_runs, window), np.int32)
    spick = np.empty((n_runs, window), np.int32)
    commit = np.empty((n_runs, window), bool)
    flat = [a.reshape(-1) for a in (order, kmin, pick, tq, commit)]
    order_f, kmin_f, pick_f, tq_f, commit_f = flat
    cq_f = cq.reshape(-1)
    key_cols = [key[..., j] for j in range(width)]
    tsc_cols = [tsc[..., j] for j in range(width)]
    end = base.copy()  # past the block's last event
    nxt = base.copy()  # the block's first event not yet pending
    accs = [SupermarketAccumulator(r) for r in runs]
    blocks: list[EventBlock | None] = [None] * n_runs
    errors: dict[int, StabilityError] = {}

    def load(r: int, now: float) -> None:
        run = runs[r]
        block = blocks[r] = draw_events(run, rngs[r], now)
        k = block.times.size
        b, d = int(base[r]), run.scheme.d
        cols = np.minimum(np.arange(width), d - 1)  # pad with the last column
        arr = np.flatnonzero(block.arrival) + b
        tick = np.flatnonzero(~block.arrival) + b
        ties = np.arange(d) if run.tie_break == "left" else block.ties
        field[arr] = ties[..., cols] << qbits | block.choices[:, cols] + off[r]
        ticks = block.ticks + off[r]
        field[tick] = ticks[:, None]
        field[b + k : b + sizes[r]] = pad
        tick_q[b : b + sizes[r]] = spare
        tick_q[tick] = ticks
        delta[b : b + k] = np.where(block.arrival, one, -one)
        pending[r] = b + ramp[:-1]
        end[r] = b + k
        nxt[r] = b + min(k, window)

    for r in range(n_runs):
        load(r, 0.0)
    live = n_runs
    passes = 0
    while live:
        passes += 1
        np.copyto(order, pending[:, ::-1])
        # Each pending event's pick against the current lengths.
        field.take(order, axis=0, out=tie, mode="clip")
        np.bitwise_and(tie, queue_mask, out=cq)
        qkey.take(cq, out=key, mode="clip")
        key |= tie
        np.minimum(key_cols[0], key_cols[-1], out=kmin)
        for col in key_cols[1:-1]:
            np.minimum(kmin, col, out=kmin)
        np.bitwise_and(kmin, queue_mask, out=pick)
        # An event waits while an earlier pending event touches the queue
        # it picks, or an earlier pending tick touches any of its queues.
        stamp[cq_f] = stamp_vals
        tick_q.take(order, out=tq, mode="clip")
        tick_stamp[tq_f] = tick_vals
        tick_stamp.take(cq, out=tsc, mode="clip")
        tick_stamp[tq_f] = window
        np.minimum(tsc_cols[0], tsc_cols[-1], out=tmin)
        for col in tsc_cols[1:-1]:
            np.minimum(tmin, col, out=tmin)
        stamp.take(pick, out=spick, mode="clip")
        np.minimum(tmin, spick, out=tmin)
        np.greater_equal(tmin, pos, out=commit)
        sel = commit_f.nonzero()[0]
        ce = order_f.take(sel)
        ck = kmin_f.take(sel)
        picked[ce] = ck
        ct = pick_f.take(sel)
        ck &= length_mask
        ck += delta.take(ce)
        np.maximum(ck, 0, out=ck)
        qkey[ct] = ck
        # The waiting events and the block's next ones, sorted (a
        # committed slot sorts last), are each run's new pending list.
        order_f[sel] = n_rows
        np.copyto(pending, order)
        np.add(nxt[:, None], ramp, out=rows[:, window:])
        rows.sort(axis=1)
        np.minimum(rows[:, window], end, out=nxt)
        for r in (pending[:, 0] >= end).nonzero()[0]:
            block = blocks[r]
            b, k = int(base[r]), block.times.size
            done = picked[b : b + k]
            try:
                accs[r].add(block, (done & queue_mask) - off[r], done >> shift)
            except StabilityError as exc:
                errors[r] = exc
            if block.last or r in errors:
                # Never due again: its list keeps sorting to its own
                # padding rows, all below n_rows.
                end[r] = n_rows
                live -= 1
            else:
                load(r, float(block.times[-1]))
    if errors:
        raise errors[min(errors)]
    return [acc.result() for acc in accs], passes
