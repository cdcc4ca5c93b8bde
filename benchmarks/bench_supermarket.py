#!/usr/bin/env python
"""A/B benchmark of the numpy supermarket kernel vs the legacy loop.

Run as a script (not under pytest-benchmark — the comparison needs
*interleaved* rounds to survive noisy shared hosts)::

    PYTHONPATH=src python benchmarks/bench_supermarket.py [--out BENCH_supermarket.json]

Contestants, measured on the Table 7/8 reference geometry (``n = 500``
queues, ``d = 3`` double hashing, ``λ = 0.99``, ``sim_time = 100`` with
``burn_in = 20`` — event *throughput* is what is measured, and it does not
depend on the simulated horizon):

- ``legacy`` — the per-event pure-Python loop this PR replaced
  (``IndexedSet`` busy set, per-queue ``list.pop(0)`` FIFOs, per-departure
  scalar RNG call), inlined below verbatim — only event counters were
  added — so the comparison stays runnable after the old code is gone;
- ``numpy``  — the blocked-draw kernel loop.

The legacy loop consumes the RNG in a different order than the kernel
contract, so the two contestants are *statistically* equivalent, not
bit-equal.

Methodology: contestants run round-robin inside one process for
``--rounds`` rounds, and per-contestant medians are compared.
Interleaving means slow host phases (other tenants, frequency scaling)
hit every contestant equally; medians discard the stragglers.  See
``docs/performance.md``.

The JSON written to ``--out`` records per-round wall-clock, medians,
events/second, and speedups relative to ``legacy``.
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

from repro.hashing import DoubleHashingChoices             # noqa: E402
from repro.kernels import (                                # noqa: E402
    KNOWN_BACKENDS,
    run_supermarket_kernel,
)
from repro.queueing.events import IndexedSet               # noqa: E402
from repro.queueing.measures import SojournAccumulator     # noqa: E402
from repro.rng import default_generator                    # noqa: E402

_PREFETCH = 4096
_TIE_BITS = 20


def _legacy_simulate_supermarket(scheme, lam, sim_time, *, burn_in, seed):
    """The pre-kernel per-event loop, verbatim (event counters added).

    Blocked draws for choices/ties/uniforms/exponentials, but a scalar
    ``rng.integers`` call per departure inside ``IndexedSet.sample`` and a
    per-event ``SojournAccumulator.observe_population`` call.
    """
    rng = default_generator(seed)
    n = scheme.n_bins
    queue_len = np.zeros(n, dtype=np.int64)
    fifos = [[] for _ in range(n)]
    busy = IndexedSet(n)
    acc = SojournAccumulator(burn_in=burn_in)
    arrival_rate = lam * n
    now = 0.0
    total_jobs = 0
    n_events = 0

    choice_block = scheme.batch(_PREFETCH, rng)
    tie_keys = rng.integers(
        0, 1 << _TIE_BITS, size=(_PREFETCH, scheme.d), dtype=np.int64
    )
    choice_idx = 0
    uniform_block = rng.random(_PREFETCH)
    expo_block = rng.exponential(1.0, _PREFETCH)
    event_idx = 0

    while True:
        if event_idx >= _PREFETCH:
            uniform_block = rng.random(_PREFETCH)
            expo_block = rng.exponential(1.0, _PREFETCH)
            event_idx = 0
        total_rate = arrival_rate + len(busy)
        now += expo_block[event_idx] / total_rate
        if now >= sim_time:
            break
        is_arrival = uniform_block[event_idx] * total_rate < arrival_rate
        event_idx += 1
        n_events += 1

        if is_arrival:
            if choice_idx >= _PREFETCH:
                choice_block = scheme.batch(_PREFETCH, rng)
                tie_keys = rng.integers(
                    0, 1 << _TIE_BITS, size=(_PREFETCH, scheme.d),
                    dtype=np.int64,
                )
                choice_idx = 0
            choices = choice_block[choice_idx]
            lengths = queue_len[choices]
            target = int(
                choices[
                    np.argmin((lengths << _TIE_BITS) | tie_keys[choice_idx])
                ]
            )
            choice_idx += 1
            fifos[target].append(now)
            if queue_len[target] == 0:
                busy.add(target)
            queue_len[target] += 1
            total_jobs += 1
        else:
            q = busy.sample(rng)
            arrival_time = fifos[q].pop(0)
            acc.observe_sojourn(arrival_time, now)
            queue_len[q] -= 1
            if queue_len[q] == 0:
                busy.remove(q)
            total_jobs -= 1
        acc.observe_population(now, total_jobs)

    return acc.mean, acc.count, n_events


def _contestants(n, d, lam, sim_time, burn_in, seed):
    def kernel_run():
        res = run_supermarket_kernel(
            DoubleHashingChoices(n, d), lam, sim_time, burn_in=burn_in,
            seed=seed, backend="numpy",
        )
        return res.mean_sojourn_time, res.completed_jobs, res.n_events

    return {
        "legacy": lambda: _legacy_simulate_supermarket(
            DoubleHashingChoices(n, d), lam, sim_time, burn_in=burn_in,
            seed=seed,
        ),
        "numpy": kernel_run,
    }


def run(n=500, d=3, lam=0.99, sim_time=100.0, burn_in=20.0, seed=20140623,
        rounds=7):
    """Measure all contestants round-robin; return the JSON report dict."""
    runs = _contestants(n, d, lam, sim_time, burn_in, seed)
    # Warm-up: touches every code path once (numpy allocator pools,
    # scheme caches) outside the timed region, and sanity checks each
    # contestant so a broken loop can't post a fast time.
    warm = {}
    for name, fn in runs.items():
        mean, completed, events = fn()
        assert completed > 0 and mean > 1.0, f"{name} produced nonsense"
        warm[name] = (mean, completed, events)

    times = {name: [] for name in runs}
    for _ in range(rounds):
        for name, fn in runs.items():   # interleaved round-robin
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)

    medians = {name: statistics.median(ts) for name, ts in times.items()}
    report = {
        "geometry": {
            "n_queues": n, "d": d, "lam": lam, "sim_time": sim_time,
            "burn_in": burn_in, "seed": seed, "scheme": "double-hashing",
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
                "events_per_second": round(warm[name][2] / medians[name], 1),
                "speedup_vs_legacy": round(
                    medians["legacy"] / medians[name], 3
                ),
            }
            for name, ts in times.items()
        },
    }
    return report


def main(argv=None):
    """CLI entry point; writes the report and prints a summary table."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_supermarket.json"),
        help="where to write the JSON report",
    )
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--lam", type=float, default=0.99)
    parser.add_argument("--sim-time", type=float, default=100.0)
    parser.add_argument("--burn-in", type=float, default=20.0)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--seed", type=int, default=20140623)
    args = parser.parse_args(argv)

    report = run(
        n=args.n, d=args.d, lam=args.lam, sim_time=args.sim_time,
        burn_in=args.burn_in, seed=args.seed, rounds=args.rounds,
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for name, r in report["results"].items():
        print(
            f"{name:>7}: median {r['median_seconds']*1e3:8.1f} ms  "
            f"{r['events_per_second']:>12,.0f} events/s  "
            f"{r['speedup_vs_legacy']:5.2f}x vs legacy"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
