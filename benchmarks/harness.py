"""The interleaved A/B harness of the ``benchmarks/bench_*.py`` scripts.

Importing it puts the checkout's ``src/`` first on ``sys.path``.

Methodology: contestants run round-robin inside one process for
``--rounds`` rounds, and per-contestant medians are compared.
Interleaving means slow host phases (other tenants, frequency scaling)
hit every contestant equally; medians discard the stragglers.  Reports
keep the per-round seconds, so the spread stays inspectable.  See
``docs/performance.md`` ("Measuring on a noisy host").
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

#: Every script's default ``--seed``.
SEED = 20140623


def timed(fn):
    """A contestant that calls ``fn`` and returns the call's seconds."""
    def contestant():
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    return contestant


def interleave(contestants, rounds):
    """Per-contestant seconds of ``rounds`` rounds, each calling every
    contestant once, in order.  A contestant returns the seconds it
    measured (see :func:`timed`), or a tuple of them for several timed
    regions, so its setup can stay untimed."""
    times = {name: [] for name in contestants}
    for _ in range(rounds):
        for name, contestant in contestants.items():
            times[name].append(contestant())
    return times


def summary(times, work, unit, baseline=None, ratio="speedup"):
    """``round_seconds``, ``median_seconds``, ``<unit>_per_second`` and,
    given a ``baseline``, ``<ratio>_vs_<baseline>`` per contestant.

    ``work`` is one count for every contestant, or a dict of each one's
    own; a rate divides it by that contestant's median.
    """
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    entries = {}
    for name, ts in times.items():
        own = work[name] if isinstance(work, dict) else work
        entries[name] = entry = {
            "round_seconds": [round(t, 6) for t in ts],
            "median_seconds": round(medians[name], 6),
            f"{unit}_per_second": round(own / medians[name], 1),
        }
        if baseline is not None:
            entry[f"{ratio}_vs_{baseline}"] = round(
                medians[baseline] / medians[name], 3
            )
    return entries


def host(**extra):
    """The report's ``host`` block."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **extra,
    }


def parser(description, out, rounds=None):
    """A parser with ``--out`` (default: ``out`` in the repo root),
    ``--rounds`` (when given a default) and ``--seed``."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument(
        "--out", default=str(REPO_ROOT / out),
        help="where to write the JSON report",
    )
    if rounds is not None:
        p.add_argument("--rounds", type=int, default=rounds)
    p.add_argument("--seed", type=int, default=SEED)
    return p


def write(report, out):
    """Write ``report`` to ``out`` as indented JSON and say so."""
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
