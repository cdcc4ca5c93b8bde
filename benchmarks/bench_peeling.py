#!/usr/bin/env python
"""Peeling benches: the threshold sweep plus the decoder A/B benchmark.

Two faces:

**pytest face** — ``bench_peeling_threshold_sweep`` below regenerates the
follow-up paper's [30] threshold experiment at bench scale under
pytest-benchmark (see ``conftest.py``), asserting the transition
shape and the duplicate-edge failure floor.

**script face** — run directly; it measures in interleaved rounds (see
``benchmarks/harness.py``)::

    PYTHONPATH=src python benchmarks/bench_peeling.py [--quick] \
        [--out BENCH_peeling.json]

Contestants decode one fixed double-hashed hypergraph below the d = 3
threshold (default ``m = 10^6`` edges, ``c = 0.70``, so the decode
completes and both contestants do identical work):

- ``reference`` — :func:`repro.peeling.peel_reference`, the per-edge
  Python oracle the kernel is certified against;
- ``numpy``     — the flat-array scatter kernel, through
  :func:`repro.peeling.peel`.

The report also records a **set-reconciliation** section
(:func:`repro.extensions.reconcile.run_reconciliation`): two parties,
``--items`` keys each differing in ``--diff``, symmetric-difference IBLT
sized by the delta, double-hashed vs fully-random cells — build and
recovery throughput for the workload the decoder exists to serve.  Each
mode runs once untimed, then ``--rounds`` times interleaved with the
other; the report keeps the median build and recovery seconds and the
rates computed from them.
"""

from __future__ import annotations

import statistics
import sys

import numpy as np
import pytest

import harness
from repro.extensions.reconcile import run_reconciliation
from repro.hashing import DoubleHashingChoices
from repro.kernels import KNOWN_BACKENDS
from repro.peeling import (
    build_hypergraph,
    peel,
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
        "numpy": lambda: peel(graph, backend="numpy"),
    }


def _reconciliation_modes(n_items, n_diff, seed, rounds):
    """Both cell-selection modes of one seeded reconciliation workload:
    an untimed warm-up each, then ``rounds`` interleaved timed runs."""
    modes = ("double", "random")

    def once(mode):
        return run_reconciliation(n_items, n_diff, mode=mode, seed=seed)

    def seconds(mode):
        res = once(mode)
        return res.build_seconds, res.reconcile_seconds

    warm = {mode: once(mode) for mode in modes}
    times = harness.interleave(
        {mode: (lambda mode=mode: seconds(mode)) for mode in modes}, rounds
    )
    entries = {}
    for mode, res in warm.items():
        build = statistics.median(b for b, _ in times[mode])
        recon = statistics.median(r for _, r in times[mode])
        delta = res.only_in_a.size + res.only_in_b.size
        entries[mode] = {
            "success": res.success,
            "missed": res.missed,
            "spurious": res.spurious,
            "residue_cells": res.residue_cells,
            "rounds": res.rounds,
            "cells": res.cells,
            "build_seconds": round(build, 6),
            "reconcile_seconds": round(recon, 6),
            "items_per_second": round(n_items / (build + recon), 1),
            "delta_per_second": round(delta / recon, 1),
        }
    return entries


def run(m=10**6, density=0.70, d=3, seed=harness.SEED, rounds=5,
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

    times = harness.interleave(
        {name: harness.timed(fn) for name, fn in runs.items()}, rounds
    )
    return {
        "geometry": {
            "n_vertices": n, "n_edges": m, "d": d, "density": density,
            "seed": seed, "scheme": "double-hashing",
            "decode_complete": bool(oracle.success),
        },
        "rounds": rounds,
        "host": harness.host(backends_available=list(KNOWN_BACKENDS)),
        "results": harness.summary(times, m, "edges", baseline="reference"),
        "reconciliation": {
            "n_items": n_items,
            "n_diff": n_diff,
            "d": d,
            "modes": _reconciliation_modes(n_items, n_diff, seed, rounds),
        },
    }


def main(argv=None):
    parser = harness.parser(
        "A/B benchmark of the peeling kernel vs its oracle",
        "BENCH_peeling.json", rounds=5,
    )
    parser.add_argument("--m", type=float, default=1e6,
                        help="hyperedges to decode")
    parser.add_argument("--density", type=float, default=0.70)
    parser.add_argument("--d", type=int, default=3)
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
    harness.write(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
