#!/usr/bin/env python
"""Per-scheme throughput benchmark plus the empirical equivalence map.

Run as a script (not under pytest-benchmark — the comparison needs
*interleaved* rounds to survive noisy shared hosts)::

    PYTHONPATH=src python benchmarks/bench_schemes.py [--out BENCH_schemes.json]

Two timed sections, recorded under the ``numpy`` tier:

- **hashing** — raw batch throughput (keys/s) of each keyed hash
  family's vectorized ``__call__`` (multiply-shift, tabulation,
  pairwise, universal) on one fixed key block;
- **placement** — balls/s of every registry scheme through
  ``run_experiment`` (fused generation + placement kernel), keyed
  families via their ``KeyedStreamScheme`` wrappers, with the engine
  ``double``/``random`` schemes as the non-keyed reference.

A third, untimed section reruns the hash-family-zoo equivalence sweep
(chi-square p on the load law and mean max load vs one fully-random
baseline, the certifier's seed convention) and records it under
``equivalence_map``; ``--map-out`` additionally renders it as the
markdown table ``docs/hash-families.md`` embeds.  Theory columns come
from ``repro.hashing.SCHEME_INFO`` — never transcribed here.
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

from repro.analysis import compare_distributions          # noqa: E402
from repro.core import run_experiment                     # noqa: E402
from repro.experiments.config import ExperimentSpec       # noqa: E402
from repro.hashing import (                               # noqa: E402
    FullyRandomChoices,
    make_hash_family,
    make_scheme,
)
from repro.hashing.registry import SCHEME_INFO            # noqa: E402

HASH_FAMILIES = ("multiply-shift", "tabulation", "pairwise", "universal")
PLACEMENT_SCHEMES = (
    "double", "random", "multiply-shift", "tabulation",
    "tabulation-double", "pairwise", "pairwise-double", "universal",
)
MAP_SCHEMES = (
    "multiply-shift", "tabulation", "tabulation-double",
    "universal", "pairwise", "pairwise-double",
)


def _bench_hashing(n, n_keys, seed, rounds):
    """Median keys/s per family on one fixed key block, interleaved."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 63, size=n_keys, dtype=np.int64)
    hashes = {
        name: make_hash_family(name, n, np.random.default_rng(seed + i))
        for i, name in enumerate(HASH_FAMILIES)
    }
    for h in hashes.values():   # warm-up (JIT compile, allocator pools)
        h(keys)
    times = {name: [] for name in HASH_FAMILIES}
    for _ in range(rounds):
        for name, h in hashes.items():
            t0 = time.perf_counter()
            h(keys)
            times[name].append(time.perf_counter() - t0)
    return {
        name: {
            "median_seconds": round(statistics.median(ts), 6),
            "keys_per_second": round(n_keys / statistics.median(ts), 1),
        }
        for name, ts in times.items()
    }


def _bench_placement(n, d, trials, seed, rounds):
    """Median balls/s per registry scheme through the fused kernel."""
    spec = ExperimentSpec(n=n, d=d, trials=trials, seed=seed)
    balls = spec.balls * trials

    def one(name):
        scheme = make_scheme(name, n, d, seed=seed)
        t0 = time.perf_counter()
        run_experiment(scheme, spec)
        return time.perf_counter() - t0

    for name in PLACEMENT_SCHEMES:  # warm-up
        one(name)
    times = {name: [] for name in PLACEMENT_SCHEMES}
    for _ in range(rounds):
        for name in PLACEMENT_SCHEMES:
            times[name].append(one(name))
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    return {
        name: {
            "median_seconds": round(medians[name], 6),
            "balls_per_second": round(balls / medians[name], 1),
            "throughput_vs_double": round(
                medians["double"] / medians[name], 3
            ),
        }
        for name in PLACEMENT_SCHEMES
    }


def equivalence_map(n, d, trials, seed):
    """Per-scheme chi-square p and mean max load vs one random baseline."""
    spec = ExperimentSpec(n=n, d=d, trials=trials, seed=seed)
    res_base = run_experiment(FullyRandomChoices(n, d), spec)
    base_max = float(res_base.distribution.max_load_per_trial.mean())
    rows = {}
    for k, name in enumerate(MAP_SCHEMES):
        seed_k = seed + 1 + k
        res = run_experiment(
            make_scheme(name, n, d, seed=seed_k), spec.replace(seed=seed_k)
        )
        rows[name] = {
            "chi2_p": round(float(compare_distributions(
                res_base.distribution, res.distribution
            ).p_value), 4),
            "mean_max_load": round(
                float(res.distribution.max_load_per_trial.mean()), 3
            ),
            "random_mean_max_load": round(base_max, 3),
        }
    return rows


def render_map_markdown(rows, n, d, trials, seed) -> str:
    """The equivalence-map table ``docs/hash-families.md`` embeds."""
    lines = [
        f"Generated by `benchmarks/bench_schemes.py` at n = 2^{n.bit_length() - 1},"
        f" d = {d}, trials = {trials}, seed {seed} (baseline: fully random;"
        " challenger k seeded +1+k).",
        "",
        "| Scheme | guarantee | citation | chi2 p vs random"
        " | mean max load | random mean max |",
        "|---|---|---|---|---|---|",
    ]
    for name, row in rows.items():
        info = SCHEME_INFO[name]
        lines.append(
            f"| {name} | {info.guarantee} | {info.citation} |"
            f" {row['chi2_p']:.3f} | {row['mean_max_load']:.2f} |"
            f" {row['random_mean_max_load']:.2f} |"
        )
    return "\n".join(lines) + "\n"


def run(n, d, trials, n_keys, seed, rounds, map_trials):
    tiers = {
        "numpy": {
            "hashing": _bench_hashing(n, n_keys, seed, rounds),
            "placement": _bench_placement(n, d, trials, seed, rounds),
        },
    }
    emap = equivalence_map(n, d, map_trials, seed)
    return {
        "geometry": {
            "n_bins": n, "d": d, "trials": trials, "n_keys": n_keys,
            "map_trials": map_trials, "seed": seed,
        },
        "rounds": rounds,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "backends": list(tiers),
        "tiers": tiers,
        "equivalence_map": emap,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_schemes.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--map-out", default=None, dest="map_out",
        help="also write the equivalence map as a markdown table",
    )
    parser.add_argument("--n", type=int, default=2**16)
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--keys", type=float, default=2**21,
                        help="hash-bench keys per round (1e6-style floats ok)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--map-trials", type=int, default=50,
                        dest="map_trials")
    parser.add_argument("--seed", type=int, default=20140623)
    parser.add_argument(
        "--quick", action="store_true",
        help="small fast configuration for CI smoke (2^14 bins, 2^18 keys)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.n = min(args.n, 2**14)
        args.trials = min(args.trials, 4)
        args.keys = min(int(args.keys), 2**18)
        args.rounds = min(args.rounds, 3)
        args.map_trials = min(args.map_trials, 25)

    report = run(
        n=args.n, d=args.d, trials=args.trials, n_keys=int(args.keys),
        seed=args.seed, rounds=args.rounds, map_trials=args.map_trials,
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    if args.map_out:
        Path(args.map_out).write_text(render_map_markdown(
            report["equivalence_map"], args.n, args.d, args.map_trials,
            args.seed,
        ))
        print(f"wrote {args.map_out}")
    for backend, tier in report["tiers"].items():
        for name, r in tier["hashing"].items():
            print(f"[{backend}] hash {name:>16}: "
                  f"{r['keys_per_second']:>14,.0f} keys/s")
        for name, r in tier["placement"].items():
            print(f"[{backend}] place {name:>15}: "
                  f"{r['balls_per_second']:>13,.0f} balls/s  "
                  f"{r['throughput_vs_double']:5.2f}x vs double")
    for name, row in report["equivalence_map"].items():
        print(f"map {name:>17}: chi2 p {row['chi2_p']:.3f}  "
              f"mean max {row['mean_max_load']:.2f} "
              f"(random {row['random_mean_max_load']:.2f})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
