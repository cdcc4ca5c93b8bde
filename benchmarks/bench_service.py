#!/usr/bin/env python
"""A/B benchmark of keyed service throughput: schemes and keymap backends.

Run as a script (not under pytest-benchmark — the comparisons need
*interleaved* rounds to survive noisy shared hosts)::

    PYTHONPATH=src python benchmarks/bench_service.py [--out BENCH_service.json]

Two sections, both on the acceptance geometry (``n = 2^16`` bins,
``d = 2``, fresh-key insert stream, then a full-hit lookup pass):

**schemes** — hashing contestants on the default (numpy) keymap kernel:

- ``double``     — keyed double hashing over multiply-shift (two hash
  computations per key — the paper's pitch);
- ``random``     — d independent multiply-shift hashes per key (the
  fully random keyed baseline);
- ``tabulation`` — d independent simple-tabulation hashes (the strongest
  practical family; the follow-up paper's setting).

**backends** — assignment-map backends (:mod:`repro.kernels.keymap`)
under the ``double`` scheme:

- ``reference``      — the demoted dict path, one Python loop per batch
  (the semantics oracle the kernel is certified against);
- ``numpy``          — the vectorized cohort-probing kernel.

Each round builds a fresh presized :class:`repro.service.KeyedStore`,
times one ``insert_many`` over ``--keys`` fresh keys (hashing +
micro-batched least-loaded placement + assignment-map update), then
times one ``lookup_many`` over the same keys.  Contestants run
round-robin inside one process; per-contestant medians are compared, so
slow host phases hit every contestant equally.  See ``docs/service.md``.

The JSON written to ``--out`` records per-round wall-clock, medians,
insert and lookup ops/second, throughput ratios (vs ``double`` for
schemes, vs ``reference`` for backends), and the final tail loads
(max/p99/p999) so balance regressions are visible next to throughput.
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

from repro.kernels.keymap import KNOWN_KEYMAP_BACKENDS      # noqa: E402
from repro.metrics import MetricsRegistry                   # noqa: E402
from repro.service import KeyedStore                        # noqa: E402

SCHEMES = ("double", "random", "tabulation")


def _one_round(scheme, backend, n, d, n_keys, seed, micro_batch, key_start,
               check=False):
    """Insert + look up ``n_keys`` fresh keys in a fresh presized store."""
    store = KeyedStore(
        n, d, scheme=scheme, seed=seed, micro_batch=micro_batch,
        backend=backend, expected_keys=n_keys, metrics=MetricsRegistry(),
    )
    keys = np.arange(key_start, key_start + n_keys, dtype=np.int64)
    t0 = time.perf_counter()
    bins = store.insert_many(keys)
    t1 = time.perf_counter()
    found = store.lookup_many(keys)
    t2 = time.perf_counter()
    loads = store.loads
    if check:
        assert loads.sum() == n_keys, f"{scheme}/{backend} lost keys"
        assert store.size == n_keys
        assert (found == bins).all(), f"{scheme}/{backend} lookup mismatch"
    p99, p999 = (float(q) for q in np.quantile(loads, (0.99, 0.999)))
    return t1 - t0, t2 - t1, {
        "max_load": int(loads.max()),
        "p99": p99,
        "p999": p999,
    }


def _bench_contestants(contestants, n, d, n_keys, seed, rounds, micro_batch):
    """Interleaved insert+lookup rounds; returns per-contestant raw data.

    ``contestants`` maps name -> (scheme, backend).  Warm-up runs every
    contestant once outside the timed region (tabulation table draws,
    JIT compiles, allocator pools) with conservation and lookup
    correctness checked — a broken contestant can never post a fast time.
    """
    ins = {name: [] for name in contestants}
    lkp = {name: [] for name in contestants}
    tails = {}
    for name, (scheme, backend) in contestants.items():
        _, _, tails[name] = _one_round(
            scheme, backend, n, d, n_keys, seed, micro_batch,
            key_start=1, check=True,
        )
    for r in range(rounds):
        for name, (scheme, backend) in contestants.items():
            t_ins, t_lkp, _ = _one_round(
                scheme, backend, n, d, n_keys, seed, micro_batch,
                key_start=1 + (r + 1) * n_keys,
            )
            ins[name].append(t_ins)
            lkp[name].append(t_lkp)
    return ins, lkp, tails


def _results(ins, lkp, tails, n_keys, baseline):
    """Median summaries with throughput ratios vs ``baseline``."""
    med_i = {name: statistics.median(ts) for name, ts in ins.items()}
    med_l = {name: statistics.median(ts) for name, ts in lkp.items()}
    return {
        name: {
            "insert_round_seconds": [round(t, 6) for t in ins[name]],
            "lookup_round_seconds": [round(t, 6) for t in lkp[name]],
            "median_seconds": round(med_i[name], 6),
            "lookup_median_seconds": round(med_l[name], 6),
            "insert_ops_per_second": round(n_keys / med_i[name], 1),
            "lookup_ops_per_second": round(n_keys / med_l[name], 1),
            f"throughput_vs_{baseline}": round(
                med_i[baseline] / med_i[name], 3
            ),
            f"lookup_vs_{baseline}": round(med_l[baseline] / med_l[name], 3),
            "tail_loads": tails[name],
        }
        for name in ins
    }


def run(n=2**16, d=2, n_keys=2**20, seed=20140623, rounds=5,
        micro_batch=2048):
    """Both benchmark sections; returns the JSON-ready report dict."""
    scheme_runs = {name: (name, None) for name in SCHEMES}
    s_ins, s_lkp, s_tails = _bench_contestants(
        scheme_runs, n, d, n_keys, seed, rounds, micro_batch
    )
    backend_runs = {
        backend: ("double", backend) for backend in KNOWN_KEYMAP_BACKENDS
    }
    b_ins, b_lkp, b_tails = _bench_contestants(
        backend_runs, n, d, n_keys, seed, rounds, micro_batch
    )
    return {
        "geometry": {
            "n_bins": n, "d": d, "n_keys": n_keys, "seed": seed,
            "micro_batch": micro_batch,
        },
        "rounds": rounds,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "keymap_backends_available": list(KNOWN_KEYMAP_BACKENDS),
        },
        "results": _results(s_ins, s_lkp, s_tails, n_keys, baseline="double"),
        "backends": _results(
            b_ins, b_lkp, b_tails, n_keys, baseline="reference"
        ),
    }


def _print_section(title, results, ratio_key):
    print(f"-- {title} --")
    for name, r in results.items():
        print(
            f"{name:>14}: insert {r['insert_ops_per_second']:>12,.0f} ops/s  "
            f"lookup {r['lookup_ops_per_second']:>12,.0f} ops/s  "
            f"{r[ratio_key]:5.2f}x  max load {r['tail_loads']['max_load']}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_service.json"),
        help="where to write the JSON report",
    )
    parser.add_argument("--n", type=int, default=2**16)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--keys", type=float, default=2**20,
                        help="inserts per round (accepts 1e6-style floats)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--micro-batch", type=int, default=2048,
                        dest="micro_batch")
    parser.add_argument("--seed", type=int, default=20140623)
    parser.add_argument(
        "--quick", action="store_true",
        help="small fast configuration for CI smoke (2^14 bins, 2^17 keys)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.n = min(args.n, 2**14)
        args.keys = min(int(args.keys), 2**17)
        args.rounds = min(args.rounds, 3)

    report = run(
        n=args.n, d=args.d, n_keys=int(args.keys), seed=args.seed,
        rounds=args.rounds, micro_batch=args.micro_batch,
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    _print_section("schemes (numpy keymap)", report["results"],
                   "throughput_vs_double")
    _print_section("keymap backends (double scheme)", report["backends"],
                   "throughput_vs_reference")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
