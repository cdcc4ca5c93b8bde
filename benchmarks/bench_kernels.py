#!/usr/bin/env python
"""A/B benchmark of the numpy placement kernel vs the pre-kernel engine.

Run as a script (not under pytest-benchmark — the comparison needs
*interleaved* rounds to survive noisy shared hosts)::

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

Methodology: contestants run round-robin inside one process for ``--rounds``
rounds, and per-contestant medians are compared.  Interleaving means slow
host phases (other tenants, frequency scaling) hit every contestant
equally; medians discard the stragglers.  See ``docs/performance.md``.

The JSON written to ``--out`` records per-round wall-clock, medians,
balls/second, and speedups relative to ``legacy``; the ``numpy`` entries
also record the kernel's ``passes`` (``kernel.place_passes`` around the
warm-up call) and ``balls_per_pass`` over all trials of the run.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import simulate_batch                     # noqa: E402
from repro.hashing import DoubleHashingChoices            # noqa: E402
from repro.kernels import KNOWN_BACKENDS, kernel_metrics  # noqa: E402
from repro.rng import default_generator                   # noqa: E402


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

    times = {name: [] for name in runs}
    for _ in range(rounds):
        for name, fn in runs.items():   # interleaved round-robin
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)

    balls = n_balls * trials
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    geometry = {
        "n_bins": n, "d": d, "n_balls": n_balls, "trials": trials,
        "seed": seed, "scheme": "double-hashing",
    }
    results = {
        name: {
            "round_seconds": [round(t, 6) for t in ts],
            "median_seconds": round(medians[name], 6),
            "balls_per_second": round(balls / medians[name], 1),
            "speedup_vs_legacy": round(medians["legacy"] / medians[name], 3),
            **(
                {"passes": int(passes[name]),
                 "balls_per_pass": round(balls / passes[name], 1)}
                if passes[name] else {}
            ),
        }
        for name, ts in times.items()
    }
    return geometry, results


def run(n=2**12, d=3, trials=50, seed=20140623, rounds=7):
    """Measure both geometries round-robin; return the JSON report dict."""
    geometry, results = _measure(n, d, trials, seed, rounds)
    dispatch_geometry, dispatch = _measure(
        DISPATCH["n"], DISPATCH["d"], DISPATCH["trials"], seed, rounds
    )
    return {
        "geometry": geometry,
        "rounds": rounds,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "backends_available": list(KNOWN_BACKENDS),
        },
        "results": results,
        "dispatch_geometry": dispatch_geometry,
        "dispatch": dispatch,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_kernels.json"),
        help="where to write the JSON report",
    )
    parser.add_argument("--n", type=int, default=2**12)
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--seed", type=int, default=20140623)
    args = parser.parse_args(argv)

    report = run(
        n=args.n, d=args.d, trials=args.trials, seed=args.seed,
        rounds=args.rounds,
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
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
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
