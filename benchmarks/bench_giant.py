#!/usr/bin/env python
"""Giant-n smoke benchmark: chunked placement at 10^7-bin scale.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_giant.py \
        [--n 16777216] [--trials 2] [--budget-seconds 600]

This is the shipped acceptance run for giant n (see ``docs/scale.md``):
``trials`` independent trials of ``m = n`` balls into ``n`` bins through
:func:`repro.core.run_experiment` with one worker — the path every table
runs on.  At ``n = 2^24`` each trial is its own chunk
(:func:`repro.parallel.chunk_sizes`), so one 64 MiB load table is in
flight at a time.

The report records wall-clock, balls/second, peak RSS, the kernel's
placement passes and the merged histogram; ``--budget-seconds`` turns the
wall-clock bound into a hard failure so CI catches regressions loudly.
"""

from __future__ import annotations

import resource
import sys
import time

import numpy as np

import harness
from repro.core import run_experiment
from repro.experiments.config import ExperimentSpec
from repro.hashing import DoubleHashingChoices
from repro.kernels import KNOWN_BACKENDS, kernel_metrics, resolve_backend
from repro.parallel import chunk_sizes


def _peak_rss_bytes():
    """Peak resident set size of this process, in bytes."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return rss * 1024 if sys.platform != "darwin" else rss


def run(n=2**24, d=3, trials=2, seed=harness.SEED):
    """One timed giant-n run; returns the JSON report dict."""
    spec = ExperimentSpec(n=n, d=d, trials=trials, seed=seed, workers=1)

    # Warm-up on a small geometry so first-call allocations stay outside
    # the timed region.
    run_experiment(DoubleHashingChoices(1024, d), spec.replace(n=1024, trials=1))

    passes = kernel_metrics().get_counter("kernel.place_passes")
    t0 = time.perf_counter()
    result = run_experiment(DoubleHashingChoices(n, d), spec)
    elapsed = time.perf_counter() - t0
    passes = int(kernel_metrics().get_counter("kernel.place_passes") - passes)

    merged = result.distribution.counts
    levels = np.arange(merged.size)
    assert merged.sum() == n * trials, "bin count violated"
    assert (merged * levels).sum() == n * trials, "ball conservation violated"
    return {
        "geometry": {
            "n_bins": n, "d": d, "n_balls": n, "trials": trials,
            "seed": seed, "chunks": len(chunk_sizes(trials, n)),
            "scheme": "double-hashing",
        },
        "host": harness.host(
            backends_available=list(KNOWN_BACKENDS),
            backend_used=resolve_backend().name,
        ),
        "results": {
            "wall_seconds": round(elapsed, 3),
            "balls_per_second": round(n * trials / elapsed, 1),
            "peak_rss_bytes": _peak_rss_bytes(),
            "kernel.place_passes": passes,
            "max_load": int(result.distribution.max_load_per_trial.max()),
            "merged_histogram": merged.tolist(),
        },
    }


def main(argv=None):
    parser = harness.parser(__doc__.splitlines()[0], "BENCH_giant.json")
    parser.add_argument(
        "--n", type=int, default=2**24,
        help="bins and balls per trial (default 2^24 ~ 1.7e7)",
    )
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument(
        "--budget-seconds", type=float, default=None, dest="budget_seconds",
        help="fail (exit 1) when the timed run exceeds this wall-clock",
    )
    args = parser.parse_args(argv)

    report = run(n=args.n, d=args.d, trials=args.trials, seed=args.seed)
    r = report["results"]
    print(
        f"n={args.n:,} trials={args.trials} "
        f"backend={report['host']['backend_used']} "
        f"chunks={report['geometry']['chunks']}"
    )
    print(
        f"wall {r['wall_seconds']:.1f}s  {r['balls_per_second']:,.0f} balls/s  "
        f"peak RSS {r['peak_rss_bytes'] / 2**20:,.0f} MiB  "
        f"passes {r['kernel.place_passes']}  max load {r['max_load']}"
    )
    harness.write(report, args.out)
    if args.budget_seconds is not None and r["wall_seconds"] > args.budget_seconds:
        print(
            f"ERROR: wall-clock {r['wall_seconds']:.1f}s exceeded the "
            f"--budget-seconds {args.budget_seconds:.1f}s bound",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
