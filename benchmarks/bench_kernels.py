#!/usr/bin/env python
"""A/B benchmark of the numpy placement kernel vs the pre-kernel engine.

Run as a script; it measures in interleaved rounds (see
``benchmarks/harness.py``)::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--out BENCH_kernels.json]

Contestants, double hashing with ``d = 3`` and ``m = n`` balls:

- ``legacy``  — the per-ball-step engine the kernel replaced, inlined
  below verbatim so the comparison stays runnable after the old code is
  gone;
- ``numpy``   — the fused out-of-order commit kernel.

Two geometries: the acceptance one (``n = 2^12`` bins, 50 trials,
``results``) and a dispatch-bound one (``n = 2^16``, 2 trials, so one
``place`` call holds the whole run and a pass is mostly fixed numpy
dispatch; ``dispatch``).

The JSON written to ``--out`` records per-round wall-clock, medians,
balls/second, and speedups relative to ``legacy``; the ``numpy`` entries
also record the kernel's ``passes`` (``kernel.place_passes`` around the
warm-up call) and ``balls_per_pass`` over all trials of the run.
"""

from __future__ import annotations

import sys

import numpy as np

import harness
from repro.core import simulate_batch
from repro.hashing import DoubleHashingChoices
from repro.kernels import KNOWN_BACKENDS, kernel_metrics
from repro.rng import default_generator


def _legacy_simulate_batch(scheme, n_balls, trials, *, seed, tie_break="random",
                           block=128):
    """The pre-kernel vectorized engine, verbatim (trials in lock-step,
    one gather/argmin/scatter per ball step, float-noise tie-breaking)."""
    rng = default_generator(seed)
    n = scheme.n_bins
    d = scheme.d
    loads = np.zeros((trials, n), dtype=np.int32)
    rows = np.arange(trials)
    random_ties = tie_break == "random" and d > 1

    remaining = n_balls
    while remaining > 0:
        steps = min(block, remaining)
        choices = scheme.batch(steps * trials, rng).reshape(steps, trials, d)
        noise = rng.random((steps, trials, d)) if random_ties else None
        for s in range(steps):
            ball_choices = choices[s]
            candidate = loads[rows[:, None], ball_choices]
            if random_ties:
                keys = candidate + noise[s]
                picks = np.argmin(keys, axis=1)
            else:
                picks = np.argmin(candidate, axis=1)
            chosen = ball_choices[rows, picks]
            loads[rows, chosen] += 1
        remaining -= steps
    return loads


def _contestants(n, d, n_balls, trials, seed):
    return {
        "legacy": lambda: _legacy_simulate_batch(
            DoubleHashingChoices(n, d), n_balls, trials, seed=seed
        ),
        "numpy": lambda: simulate_batch(
            DoubleHashingChoices(n, d), n_balls, trials, seed=seed,
            backend="numpy",
        ).loads,
    }


#: The dispatch-bound geometry: a whole run in one ``place`` call.
DISPATCH = {"n": 2**16, "d": 3, "trials": 2}


def _place_passes():
    """The global kernel registry's ``kernel.place_passes``."""
    return kernel_metrics().get_counter("kernel.place_passes")


def _measure(n, d, trials, seed, rounds):
    """Geometry and per-contestant results of one interleaved A/B."""
    n_balls = n
    runs = _contestants(n, d, n_balls, trials, seed)
    # Warm-up: touches every code path once (numpy allocator pools,
    # scheme caches) outside the timed region, and checks ball
    # conservation so a broken kernel can't post a fast time.
    passes = {}
    for name, fn in runs.items():
        before = _place_passes()
        totals = np.asarray(fn()).sum(axis=1)
        assert (totals == n_balls).all(), f"{name} lost balls"
        passes[name] = _place_passes() - before

    times = harness.interleave(
        {name: harness.timed(fn) for name, fn in runs.items()}, rounds
    )
    balls = n_balls * trials
    results = harness.summary(times, balls, "balls", baseline="legacy")
    for name, entry in results.items():
        if passes[name]:
            entry["passes"] = int(passes[name])
            entry["balls_per_pass"] = round(balls / passes[name], 1)
    geometry = {
        "n_bins": n, "d": d, "n_balls": n_balls, "trials": trials,
        "seed": seed, "scheme": "double-hashing",
    }
    return geometry, results


def run(n=2**12, d=3, trials=50, seed=harness.SEED, rounds=7):
    """Measure both geometries round-robin; return the JSON report dict."""
    geometry, results = _measure(n, d, trials, seed, rounds)
    dispatch_geometry, dispatch = _measure(
        DISPATCH["n"], DISPATCH["d"], DISPATCH["trials"], seed, rounds
    )
    return {
        "geometry": geometry,
        "rounds": rounds,
        "host": harness.host(backends_available=list(KNOWN_BACKENDS)),
        "results": results,
        "dispatch_geometry": dispatch_geometry,
        "dispatch": dispatch,
    }


def main(argv=None):
    parser = harness.parser(
        __doc__.splitlines()[0], "BENCH_kernels.json", rounds=7
    )
    parser.add_argument("--n", type=int, default=2**12)
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--trials", type=int, default=50)
    args = parser.parse_args(argv)

    report = run(
        n=args.n, d=args.d, trials=args.trials, seed=args.seed,
        rounds=args.rounds,
    )
    for section in ("results", "dispatch"):
        for name, r in report[section].items():
            commits = (
                f"  {r['passes']:,} passes, {r['balls_per_pass']} balls/pass"
                if "passes" in r else ""
            )
            print(
                f"{section:>8} {name:>6}: median "
                f"{r['median_seconds']*1e3:8.1f} ms  "
                f"{r['balls_per_second']:>12,.0f} balls/s  "
                f"{r['speedup_vs_legacy']:5.2f}x vs legacy{commits}"
            )
    harness.write(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
