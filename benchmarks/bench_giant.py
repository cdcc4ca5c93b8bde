#!/usr/bin/env python
"""Giant-n smoke benchmark: parallel-trials placement at 10^7-bin scale.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_giant.py \
        [--n 16777216] [--trials 2] [--budget-seconds 600]

This is the shipped acceptance run for the giant-n scale-out (see
``docs/scale.md``): ``trials`` independent trials of ``m = n`` balls into
``n`` bins through :func:`repro.kernels.run_parallel_trials` on the numpy
kernel.  Load tables are sharded per :func:`repro.kernels.default_shards`;
the report records the shard count.

The report records wall-clock, balls/second, peak RSS (must stay
O(shard) + one O(n) load table per in-flight trial), and the merged
histogram; ``--budget-seconds`` turns the wall-clock bound into a hard
failure so CI catches regressions loudly.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.hashing import DoubleHashingChoices             # noqa: E402
from repro.kernels import (                                # noqa: E402
    KNOWN_BACKENDS,
    default_shards,
    resolve_backend,
    run_parallel_trials,
)


def _peak_rss_bytes():
    """Peak resident set size of this process, in bytes."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return rss * 1024 if sys.platform != "darwin" else rss


def run(n=2**24, d=3, trials=2, seed=20140623):
    """One timed giant-n run; returns the JSON report dict."""
    scheme = DoubleHashingChoices(n, d)

    # Warm-up on a small geometry so first-call allocations stay outside
    # the timed region.
    run_parallel_trials(DoubleHashingChoices(1024, d), 1024, 1, root=seed)

    t0 = time.perf_counter()
    hist = run_parallel_trials(scheme, n, trials, root=seed)
    elapsed = time.perf_counter() - t0

    totals = (hist * np.arange(hist.shape[1])).sum(axis=1)
    assert (totals == n).all(), "ball conservation violated"
    merged = hist.sum(axis=0)
    return {
        "geometry": {
            "n_bins": n, "d": d, "n_balls": n, "trials": trials,
            "seed": seed, "shards": default_shards(n, d),
            "scheme": "double-hashing",
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "backends_available": list(KNOWN_BACKENDS),
            "backend_used": resolve_backend().name,
        },
        "results": {
            "wall_seconds": round(elapsed, 3),
            "balls_per_second": round(n * trials / elapsed, 1),
            "peak_rss_bytes": _peak_rss_bytes(),
            "max_load": int(np.flatnonzero(merged)[-1]),
            "merged_histogram": merged.tolist(),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_giant.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--n", type=int, default=2**24,
        help="bins and balls per trial (default 2^24 ~ 1.7e7)",
    )
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--seed", type=int, default=20140623)
    parser.add_argument(
        "--budget-seconds", type=float, default=None, dest="budget_seconds",
        help="fail (exit 1) when the timed run exceeds this wall-clock",
    )
    args = parser.parse_args(argv)

    report = run(n=args.n, d=args.d, trials=args.trials, seed=args.seed)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    r = report["results"]
    print(
        f"n={args.n:,} trials={args.trials} "
        f"backend={report['host']['backend_used']} "
        f"shards={report['geometry']['shards']}"
    )
    print(
        f"wall {r['wall_seconds']:.1f}s  {r['balls_per_second']:,.0f} balls/s  "
        f"peak RSS {r['peak_rss_bytes'] / 2**20:,.0f} MiB  "
        f"max load {r['max_load']}"
    )
    print(f"wrote {args.out}")
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
