#!/usr/bin/env python
"""A/B benchmark of keyed service throughput: schemes and keymap backends.

Run as a script; it measures in interleaved rounds (see
``benchmarks/harness.py``)::

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
times one ``lookup_many`` over the same keys.  See ``docs/service.md``.

The JSON written to ``--out`` records per-round wall-clock, medians,
insert and lookup ops/second, throughput ratios (vs ``double`` for
schemes, vs ``reference`` for backends), and the final tail loads
(max/p99/p999) so balance regressions are visible next to throughput.
"""

from __future__ import annotations

import itertools
import sys
import time

import numpy as np

import harness
from repro.kernels.keymap import KNOWN_KEYMAP_BACKENDS
from repro.metrics import MetricsRegistry
from repro.service import KeyedStore

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


def _section(contestants, baseline, n, d, n_keys, seed, rounds, micro_batch):
    """Interleaved insert+lookup rounds, summarized against ``baseline``.

    ``contestants`` maps name -> (scheme, backend).  Warm-up runs every
    contestant once outside the timed region (tabulation table draws,
    allocator pools) with conservation and lookup correctness checked —
    a broken contestant can never post a fast time.  Each round then
    inserts the next ``n_keys`` fresh keys.
    """
    tails = {}
    for name, (scheme, backend) in contestants.items():
        _, _, tails[name] = _one_round(
            scheme, backend, n, d, n_keys, seed, micro_batch,
            key_start=1, check=True,
        )

    def contestant(scheme, backend):
        starts = itertools.count(1 + n_keys, n_keys)
        return lambda: _one_round(
            scheme, backend, n, d, n_keys, seed, micro_batch,
            key_start=next(starts),
        )[:2]

    times = harness.interleave(
        {name: contestant(*pair) for name, pair in contestants.items()},
        rounds,
    )
    ins = harness.summary(
        {name: [t for t, _ in ts] for name, ts in times.items()},
        n_keys, "insert_ops", baseline, "throughput",
    )
    lkp = harness.summary(
        {name: [t for _, t in ts] for name, ts in times.items()},
        n_keys, "lookup_ops", baseline, "lookup",
    )
    return {
        name: {
            "insert_round_seconds": ins[name]["round_seconds"],
            "lookup_round_seconds": lkp[name]["round_seconds"],
            "median_seconds": ins[name]["median_seconds"],
            "lookup_median_seconds": lkp[name]["median_seconds"],
            "insert_ops_per_second": ins[name]["insert_ops_per_second"],
            "lookup_ops_per_second": lkp[name]["lookup_ops_per_second"],
            f"throughput_vs_{baseline}":
                ins[name][f"throughput_vs_{baseline}"],
            f"lookup_vs_{baseline}": lkp[name][f"lookup_vs_{baseline}"],
            "tail_loads": tails[name],
        }
        for name in contestants
    }


def run(n=2**16, d=2, n_keys=2**20, seed=harness.SEED, rounds=5,
        micro_batch=2048):
    """Both benchmark sections; returns the JSON-ready report dict."""
    geometry = (n, d, n_keys, seed, rounds, micro_batch)
    scheme_runs = {name: (name, None) for name in SCHEMES}
    backend_runs = {
        backend: ("double", backend) for backend in KNOWN_KEYMAP_BACKENDS
    }
    return {
        "geometry": {
            "n_bins": n, "d": d, "n_keys": n_keys, "seed": seed,
            "micro_batch": micro_batch,
        },
        "rounds": rounds,
        "host": harness.host(
            keymap_backends_available=list(KNOWN_KEYMAP_BACKENDS)
        ),
        "results": _section(scheme_runs, "double", *geometry),
        "backends": _section(backend_runs, "reference", *geometry),
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
    parser = harness.parser(
        __doc__.splitlines()[0], "BENCH_service.json", rounds=5
    )
    parser.add_argument("--n", type=int, default=2**16)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--keys", type=float, default=2**20,
                        help="inserts per round (accepts 1e6-style floats)")
    parser.add_argument("--micro-batch", type=int, default=2048,
                        dest="micro_batch")
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
    _print_section("schemes (numpy keymap)", report["results"],
                   "throughput_vs_double")
    _print_section("keymap backends (double scheme)", report["backends"],
                   "throughput_vs_reference")
    harness.write(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
