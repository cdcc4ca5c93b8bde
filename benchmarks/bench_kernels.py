#!/usr/bin/env python
"""A/B benchmark of the numpy placement kernel vs the pre-kernel engine.

Run as a script (not under pytest-benchmark — the comparison needs
*interleaved* rounds to survive noisy shared hosts)::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--out BENCH_kernels.json]

Contestants, measured on the acceptance geometry (``n = 2^12`` bins,
``m = n`` balls, ``trials = 50``, double hashing, ``d = 3``):

- ``legacy``  — the per-ball-step engine this PR replaced, inlined below
  verbatim so the comparison stays runnable after the old code is gone;
- ``numpy``   — the fused out-of-order commit kernel.

Methodology: contestants run round-robin inside one process for ``--rounds``
rounds, and per-contestant medians are compared.  Interleaving means slow
host phases (other tenants, frequency scaling) hit every contestant
equally; medians discard the stragglers.  See ``docs/performance.md``.

The JSON written to ``--out`` records per-round wall-clock, medians,
balls/second, and speedups relative to ``legacy``.
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
from repro.kernels import KNOWN_BACKENDS                  # noqa: E402
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


def run(n=2**12, d=3, trials=50, seed=20140623, rounds=7):
    n_balls = n
    runs = _contestants(n, d, n_balls, trials, seed)
    # Warm-up: touches every code path once (numpy allocator pools,
    # scheme caches) outside the timed region, and checks ball
    # conservation so a broken kernel can't post a fast time.
    for name, fn in runs.items():
        totals = np.asarray(fn()).sum(axis=1)
        assert (totals == n_balls).all(), f"{name} lost balls"

    times = {name: [] for name in runs}
    for _ in range(rounds):
        for name, fn in runs.items():   # interleaved round-robin
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)

    balls = n_balls * trials
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    report = {
        "geometry": {
            "n_bins": n, "d": d, "n_balls": n_balls, "trials": trials,
            "seed": seed, "scheme": "double-hashing",
        },
        "rounds": rounds,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "backends_available": list(KNOWN_BACKENDS),
        },
        "results": {
            name: {
                "round_seconds": [round(t, 6) for t in ts],
                "median_seconds": round(medians[name], 6),
                "balls_per_second": round(balls / medians[name], 1),
                "speedup_vs_legacy": round(
                    medians["legacy"] / medians[name], 3
                ),
            }
            for name, ts in times.items()
        },
    }
    return report


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
    for name, r in report["results"].items():
        print(
            f"{name:>14}: median {r['median_seconds']*1e3:8.1f} ms  "
            f"{r['balls_per_second']:>12,.0f} balls/s  "
            f"{r['speedup_vs_legacy']:5.2f}x vs legacy"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
