#!/usr/bin/env python
"""A/B benchmark of the numpy supermarket kernel vs the legacy loop.

Run as a script; it measures in interleaved rounds (see
``benchmarks/harness.py``)::

    PYTHONPATH=src python benchmarks/bench_supermarket.py [--out BENCH_supermarket.json]

Contestants, measured on one run of the Table 8 reference geometry
(``n = 500`` queues, ``d = 3`` double hashing, ``λ = 0.99``,
``sim_time = 100`` with ``burn_in = 20`` — event *throughput* is what is
measured, and it does not depend on the simulated horizon):

- ``legacy`` — the first per-event pure-Python loop
  (``_IndexedSet`` busy set, per-queue ``list.pop(0)`` FIFOs, per-departure
  scalar RNG call), inlined below verbatim with the two helper classes it
  called — only event counters were added — so the comparison stays
  runnable after the old code is gone;
- ``numpy``  — the windowed kernel on a batch of one run, through
  :func:`repro.queueing.simulate_supermarket`.

Events are arrivals plus departures; the kernel's no-op service ticks
are not counted.  The legacy loop draws a different stream than the
kernel's schedule, so the two contestants are *statistically*
equivalent, not bit-equal.

The JSON written to ``--out`` records per-round wall-clock, medians,
events/second, and speedups relative to ``legacy``; for the ``numpy``
contestant also the kernel's pass count on the run (the
``kernel.supermarket_passes`` counter around its warm-up call) and its
events per pass, the windowed-commit model as data.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

import harness
from repro.hashing import DoubleHashingChoices
from repro.kernels import KNOWN_BACKENDS, kernel_metrics
from repro.queueing import SupermarketRun, simulate_supermarket
from repro.rng import default_generator

_PREFETCH = 4096
_TIE_BITS = 20


class _IndexedSet:
    """The legacy loop's busy set: O(1) add/remove/uniform-sample over
    ``[0, capacity)`` (dense array plus position map; removal swaps the
    last element in)."""

    __slots__ = ("_items", "_pos", "_size")

    def __init__(self, capacity):
        self._items = np.empty(capacity, dtype=np.int64)
        self._pos = np.full(capacity, -1, dtype=np.int64)
        self._size = 0

    def __len__(self):
        return self._size

    def add(self, x):
        if self._pos[x] >= 0:
            return
        self._items[self._size] = x
        self._pos[x] = self._size
        self._size += 1

    def remove(self, x):
        p = self._pos[x]
        if p < 0:
            raise KeyError(x)
        last = self._items[self._size - 1]
        self._items[p] = last
        self._pos[last] = p
        self._pos[x] = -1
        self._size -= 1

    def sample(self, rng):
        if self._size == 0:
            raise IndexError("sample from empty _IndexedSet")
        return int(self._items[rng.integers(0, self._size)])


@dataclass
class _SojournAccumulator:
    """The legacy loop's statistics: a streaming (Welford) mean of the
    sojourns of jobs arriving after ``burn_in``, and the time integral of
    the population after it."""

    burn_in: float = 0.0
    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    _area: float = 0.0
    _busy_area: float = 0.0
    _last_time: float = 0.0
    _last_total: int = 0
    _last_busy: int = 0

    def observe_sojourn(self, arrival_time, departure_time):
        if departure_time < arrival_time:
            raise ValueError(
                f"departure {departure_time} precedes arrival {arrival_time}"
            )
        if arrival_time < self.burn_in:
            return
        sojourn = departure_time - arrival_time
        self.count += 1
        delta = sojourn - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (sojourn - self._mean)

    def observe_population(self, time, total_jobs, busy_queues=None):
        if time > self.burn_in:
            effective_last = max(self._last_time, self.burn_in)
            self._area += self._last_total * (time - effective_last)
            if busy_queues is not None:
                self._busy_area += self._last_busy * (time - effective_last)
        self._last_time = time
        self._last_total = total_jobs
        if busy_queues is not None:
            self._last_busy = busy_queues

    @property
    def mean(self):
        if self.count == 0:
            raise ValueError("no sojourn times recorded")
        return self._mean


def _legacy_simulate_supermarket(scheme, lam, sim_time, *, burn_in, seed):
    """The pre-kernel per-event loop, verbatim (event counters added).

    Blocked draws for choices/ties/uniforms/exponentials, but a scalar
    ``rng.integers`` call per departure inside ``_IndexedSet.sample`` and
    a per-event ``_SojournAccumulator.observe_population`` call.
    """
    rng = default_generator(seed)
    n = scheme.n_bins
    queue_len = np.zeros(n, dtype=np.int64)
    fifos = [[] for _ in range(n)]
    busy = _IndexedSet(n)
    acc = _SojournAccumulator(burn_in=burn_in)
    arrival_rate = lam * n
    now = 0.0
    total_jobs = 0
    n_events = 0

    choice_block = scheme.batch(_PREFETCH, rng)
    tie_keys = rng.integers(
        0, 1 << _TIE_BITS, size=(_PREFETCH, scheme.d), dtype=np.int64
    )
    choice_idx = 0
    uniform_block = rng.random(_PREFETCH)
    expo_block = rng.exponential(1.0, _PREFETCH)
    event_idx = 0

    while True:
        if event_idx >= _PREFETCH:
            uniform_block = rng.random(_PREFETCH)
            expo_block = rng.exponential(1.0, _PREFETCH)
            event_idx = 0
        total_rate = arrival_rate + len(busy)
        now += expo_block[event_idx] / total_rate
        if now >= sim_time:
            break
        is_arrival = uniform_block[event_idx] * total_rate < arrival_rate
        event_idx += 1
        n_events += 1

        if is_arrival:
            if choice_idx >= _PREFETCH:
                choice_block = scheme.batch(_PREFETCH, rng)
                tie_keys = rng.integers(
                    0, 1 << _TIE_BITS, size=(_PREFETCH, scheme.d),
                    dtype=np.int64,
                )
                choice_idx = 0
            choices = choice_block[choice_idx]
            lengths = queue_len[choices]
            target = int(
                choices[
                    np.argmin((lengths << _TIE_BITS) | tie_keys[choice_idx])
                ]
            )
            choice_idx += 1
            fifos[target].append(now)
            if queue_len[target] == 0:
                busy.add(target)
            queue_len[target] += 1
            total_jobs += 1
        else:
            q = busy.sample(rng)
            arrival_time = fifos[q].pop(0)
            acc.observe_sojourn(arrival_time, now)
            queue_len[q] -= 1
            if queue_len[q] == 0:
                busy.remove(q)
            total_jobs -= 1
        acc.observe_population(now, total_jobs)

    return acc.mean, acc.count, n_events


def _contestants(n, d, lam, sim_time, burn_in, seed):
    def kernel_run():
        res = simulate_supermarket([SupermarketRun(
            DoubleHashingChoices(n, d), lam, sim_time, burn_in=burn_in,
            seed=seed,
        )], backend="numpy")[0]
        return res.mean_sojourn_time, res.completed_jobs, res.n_events

    return {
        "legacy": lambda: _legacy_simulate_supermarket(
            DoubleHashingChoices(n, d), lam, sim_time, burn_in=burn_in,
            seed=seed,
        ),
        "numpy": kernel_run,
    }


def _kernel_passes():
    """The global kernel registry's ``kernel.supermarket_passes``."""
    return kernel_metrics().get_counter("kernel.supermarket_passes")


def run(n=500, d=3, lam=0.99, sim_time=100.0, burn_in=20.0, seed=harness.SEED,
        rounds=7):
    """Measure all contestants round-robin; return the JSON report dict."""
    runs = _contestants(n, d, lam, sim_time, burn_in, seed)
    # Warm-up: touches every code path once (numpy allocator pools,
    # scheme caches) outside the timed region, and sanity checks each
    # contestant so a broken loop can't post a fast time.
    events, passes = {}, {}
    for name, fn in runs.items():
        before = _kernel_passes()
        mean, completed, events[name] = fn()
        assert completed > 0 and mean > 1.0, f"{name} produced nonsense"
        passes[name] = _kernel_passes() - before

    times = harness.interleave(
        {name: harness.timed(fn) for name, fn in runs.items()}, rounds
    )
    # Each contestant's rate counts its own events: the two loops draw
    # different streams, so their event totals differ.
    results = harness.summary(times, events, "events", baseline="legacy")
    for name, entry in results.items():
        if passes[name]:
            entry["passes"] = passes[name]
            entry["events_per_pass"] = round(events[name] / passes[name], 1)
    return {
        "geometry": {
            "n_queues": n, "d": d, "lam": lam, "sim_time": sim_time,
            "burn_in": burn_in, "seed": seed, "scheme": "double-hashing",
        },
        "rounds": rounds,
        "host": harness.host(backends_available=list(KNOWN_BACKENDS)),
        "results": results,
    }


def main(argv=None):
    """CLI entry point; writes the report and prints a summary table."""
    parser = harness.parser(
        __doc__.splitlines()[0], "BENCH_supermarket.json", rounds=7
    )
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--lam", type=float, default=0.99)
    parser.add_argument("--sim-time", type=float, default=100.0)
    parser.add_argument("--burn-in", type=float, default=20.0)
    args = parser.parse_args(argv)

    report = run(
        n=args.n, d=args.d, lam=args.lam, sim_time=args.sim_time,
        burn_in=args.burn_in, seed=args.seed, rounds=args.rounds,
    )
    for name, r in report["results"].items():
        commits = (
            f"  {r['passes']:,} passes, {r['events_per_pass']} events/pass"
            if "passes" in r else ""
        )
        print(
            f"{name:>7}: median {r['median_seconds']*1e3:8.1f} ms  "
            f"{r['events_per_second']:>12,.0f} events/s  "
            f"{r['speedup_vs_legacy']:5.2f}x vs legacy{commits}"
        )
    harness.write(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
