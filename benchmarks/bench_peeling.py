#!/usr/bin/env python
"""Peeling benches: the threshold sweep plus the decoder A/B benchmark.

Two faces:

**pytest face** — ``bench_peeling_threshold_sweep`` below regenerates the
follow-up paper's [30] threshold experiment at bench scale under the
``benchmarks/`` harness (see ``conftest.py``), asserting the transition
shape and the duplicate-edge failure floor.

**script face** — run directly (not under pytest-benchmark; the kernel
comparison needs *interleaved* rounds to survive noisy shared hosts)::

    PYTHONPATH=src python benchmarks/bench_peeling.py [--quick] \
        [--out BENCH_peeling.json]

Contestants decode one fixed double-hashed hypergraph below the d = 3
threshold (default ``m = 10^6`` edges, ``c = 0.70``, so the decode
completes and both contestants do identical work):

- ``reference`` — :func:`repro.peeling.peel_reference`, the per-edge
  Python oracle the kernel is certified against;
- ``numpy``     — the flat-array scatter kernel.

The report also records a **set-reconciliation** section
(:func:`repro.extensions.reconcile.run_reconciliation`): two parties,
``--items`` keys each differing in ``--diff``, symmetric-difference IBLT
sized by the delta, double-hashed vs fully-random cells — build and
recovery throughput for the workload the decoder exists to serve.

Methodology: contestants run round-robin inside one process for
``--rounds`` rounds and per-contestant medians are compared, as in
``bench_kernels.py``; see ``docs/performance.md``.
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
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.extensions.reconcile import run_reconciliation      # noqa: E402
from repro.hashing import DoubleHashingChoices                 # noqa: E402
from repro.kernels import KNOWN_BACKENDS, run_peeling_kernel  # noqa: E402
from repro.peeling import (                                    # noqa: E402
    build_hypergraph,
    peel_reference,
    peeling_threshold,
    threshold_experiment,
)


def bench_peeling_threshold_sweep(benchmark, scale, attach):
    """Threshold sweep at bench scale: transition shape + failure floor."""
    def run():
        return threshold_experiment(
            2048, 3, [0.70, 0.78, 0.86, 0.94], trials=8, seed=scale.seed
        )

    exp = benchmark.pedantic(run, rounds=1, iterations=1)
    # Fully random: clean transition across the threshold.
    assert exp.success_random[0] == 1.0
    assert exp.success_random[-1] == 0.0
    # Core fractions agree between schemes at every density.
    for cf_r, cf_d in zip(exp.core_fraction_random, exp.core_fraction_double):
        assert cf_d == pytest.approx(cf_r, abs=0.04)
    # Below threshold, double hashing's residual core is microscopic even
    # when complete recovery fails (duplicate pairs only).
    assert exp.core_fraction_double[0] < 0.01
    assert exp.asymptotic_threshold == pytest.approx(
        peeling_threshold(3), abs=1e-9
    )
    attach(
        densities=list(exp.densities),
        success_random=list(exp.success_random),
        success_double=list(exp.success_double),
        core_random=[round(float(x), 4) for x in exp.core_fraction_random],
        core_double=[round(float(x), 4) for x in exp.core_fraction_double],
    )


# --------------------------------------------------------------------------
# Script face: decoder A/B benchmark + reconciliation throughput
# --------------------------------------------------------------------------

def _contestants(graph):
    return {
        "reference": lambda: peel_reference(graph),
        "numpy": lambda: run_peeling_kernel(
            graph.edges, graph.n_vertices, backend="numpy"
        ),
    }


def _reconcile_entry(n_items, n_diff, mode, seed):
    res = run_reconciliation(n_items, n_diff, mode=mode, seed=seed)
    return {
        "success": res.success,
        "missed": res.missed,
        "spurious": res.spurious,
        "residue_cells": res.residue_cells,
        "rounds": res.rounds,
        "cells": res.cells,
        "build_seconds": round(res.build_seconds, 6),
        "reconcile_seconds": round(res.reconcile_seconds, 6),
        "items_per_second": round(res.items_per_second, 1),
        "delta_per_second": round(res.delta_per_second, 1),
    }


def run(m=10**6, density=0.70, d=3, seed=20140623, rounds=5,
        n_items=10**6, n_diff=10**3):
    """Interleaved decoder A/B rounds plus the reconciliation workload."""
    n = int(np.ceil(m / density))
    graph = build_hypergraph(DoubleHashingChoices(n, d), m, seed=seed)
    runs = _contestants(graph)
    # Warm-up: every contestant decodes once outside the timed region
    # (allocator pools) and must agree exactly with the reference — a
    # broken kernel can never post a fast time.
    oracle = runs["reference"]()
    for name, fn in runs.items():
        got = fn()
        assert got.success == oracle.success, f"{name} success mismatch"
        assert got.rounds == oracle.rounds, f"{name} rounds mismatch"
        assert np.array_equal(
            got.peeled_order, oracle.peeled_order
        ), f"{name} peel order mismatch"

    times = {name: [] for name in runs}
    for _ in range(rounds):
        for name, fn in runs.items():   # interleaved round-robin
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)

    medians = {name: statistics.median(ts) for name, ts in times.items()}
    report = {
        "geometry": {
            "n_vertices": n, "n_edges": m, "d": d, "density": density,
            "seed": seed, "scheme": "double-hashing",
            "decode_complete": bool(oracle.success),
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
                "edges_per_second": round(m / medians[name], 1),
                "speedup_vs_reference": round(
                    medians["reference"] / medians[name], 3
                ),
            }
            for name, ts in times.items()
        },
        "reconciliation": {
            "n_items": n_items,
            "n_diff": n_diff,
            "d": d,
            "modes": {
                mode: _reconcile_entry(n_items, n_diff, mode, seed)
                for mode in ("double", "random")
            },
        },
    }
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="A/B benchmark of the peeling kernel vs its oracle"
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_peeling.json"),
        help="where to write the JSON report",
    )
    parser.add_argument("--m", type=float, default=1e6,
                        help="hyperedges to decode")
    parser.add_argument("--density", type=float, default=0.70)
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=20140623)
    parser.add_argument("--items", type=float, default=1e6,
                        help="reconciliation items per party")
    parser.add_argument("--diff", type=float, default=1e3,
                        help="reconciliation symmetric-difference size")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI scale: m=1e5 edges, 2e5 items, 3 rounds",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.m, args.items, args.rounds = 1e5, 2e5, 3

    report = run(
        m=int(args.m), density=args.density, d=args.d, seed=args.seed,
        rounds=args.rounds, n_items=int(args.items), n_diff=int(args.diff),
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for name, r in report["results"].items():
        print(
            f"{name:>10}: median {r['median_seconds']*1e3:8.1f} ms  "
            f"{r['edges_per_second']:>12,.0f} edges/s  "
            f"{r['speedup_vs_reference']:5.2f}x vs reference"
        )
    for mode, r in report["reconciliation"]["modes"].items():
        verdict = "ok" if r["success"] else (
            f"INCOMPLETE (missed={r['missed']} spurious={r['spurious']} "
            f"residue={r['residue_cells']})"
        )
        print(
            f"{'recon-' + mode:>13}: {r['items_per_second']:>12,.0f} items/s  "
            f"{r['delta_per_second']:>10,.0f} delta-keys/s  {verdict}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
