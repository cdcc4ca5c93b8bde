#!/usr/bin/env python3
"""End-to-end benchmark of the repository: one command, four workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload serve --seed 1 --seconds 20 --trace 0

A run sets the workload up ``SETUP_REPS`` times (``setup_s`` is the
median), then repeats timed passes until ``--seconds`` have gone by, then
runs the workload's once-per-run output check.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced
and traced passes and reports its per-layer metrics, including
``unaccounted_s`` (wall time no top-level span covers) and
``trace_overhead_frac`` (traced over untraced median wall time, minus 1).

Every metric, the workload's own end-to-end figures and the run context
are printed as ``metric``/``context`` lines; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every output check passed, 1 when one
failed, 2 when the program cannot be imported or resolved a backend other
than the numpy kernels.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The workloads are single-threaded by definition; keep BLAS from
# spreading over the cores before numpy loads it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_REPS = 5
#: Fewest untraced passes a run measures, however short ``--seconds`` is.
MIN_PASSES = 3
EXPECTED_BACKEND = "numpy"
#: Iterations of the host probe's Python loop, and the probe time taken
#: as the host's reference speed (about its time on a quiet host here).
PROBE_LOOP = 500_000
PROBE_REF_S = 0.032

#: Units of the workload-specific end-to-end figures printed beside the
#: bounded metrics of BENCHMARK.json.
WORKLOAD_UNITS = {
    "ops_per_s": "1/s",
    "insert_ops_per_s": "1/s",
    "delete_ops_per_s": "1/s",
    "lookup_ops_per_s": "1/s",
    "balls_per_s": "1/s",
    "items_per_s": "1/s",
    "recover_s": "s",
    "build_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fail(message: str):
    """Stop the run without a result line (exit status 2)."""
    print(f"e2ebench: {message}", file=sys.stderr)
    raise SystemExit(2)


def run_context(workload, inputs, seed: int) -> dict:
    """What the run resolved; stops the run on an unexpected backend."""
    import numpy as np

    from repro.errors import ConfigurationError
    from repro.kernels import resolve_backend
    from repro.kernels.keymap import resolve_keymap_backend

    try:
        context = {
            "workload": workload.name,
            "seed": seed,
            "placement_backend": resolve_backend(None).name,
            "keymap_backend": resolve_keymap_backend(None),
        }
    except ConfigurationError as exc:
        fail(f"backend resolution failed: {exc}")
    context.update(workload.context(inputs))
    context.update(
        python=platform.python_version(),
        numpy=np.__version__,
        nproc=os.cpu_count(),
        git_sha=git_sha(),
        env={k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    )
    for key in ("placement_backend", "keymap_backend"):
        if context[key] != EXPECTED_BACKEND:
            fail(
                f"{key} resolved to {context[key]!r}, expected "
                f"{EXPECTED_BACKEND!r}; refusing to report its figures"
            )
    check_no_fallback()
    return context


def check_no_fallback() -> None:
    from repro.metrics import global_registry

    fallbacks = [e for e in global_registry().events if e["kind"] == "backend-fallback"]
    if fallbacks:
        fail(f"{len(fallbacks)} kernel backend fallback(s), first: {fallbacks[0]}")


class HostProbe:
    """Fixed reference work, timed next to every timed sample.

    The host this benchmark runs on is shared: the same pass can take
    nearly three times as long when neighbours are busy, in phases that
    outlast a run.  The
    probe is benchmark code, never the program's (a pure-Python loop and
    a random gather over 16 MiB, the two kinds of work the workloads
    mix), so its time tracks only the host's speed.  A sample's
    *normalized* time is ``raw * PROBE_REF_S / probe``, the probe being
    the mean of the probes taken just before and just after the sample.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._data = rng.integers(0, 1 << 40, size=1 << 21)
        self._index = rng.integers(0, self._data.size, size=1 << 20)
        self._last = self.time()

    def time(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i
        self._data.take(self._index).sum()
        return time.perf_counter() - start

    def around(self, fn):
        """Call ``fn``; return its result and the probe time around it."""
        result = fn()
        now = self.time()
        probe, self._last = (self._last + now) / 2, now
        return result, probe


def measure(workload, inputs, seconds: float, trace: bool, host: HostProbe):
    """Timed passes until ``seconds`` elapse; traced passes interleave.

    Returns the untraced passes with their probe times, and the traced
    passes.
    """
    from tracing import Tracer

    def traced_pass():
        with Tracer() as tracer:
            workload.instrument(tracer)
            return workload.run(inputs, tracer)

    plain, probes, traced = [], [], []
    start = time.perf_counter()
    while len(plain) < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()
        result, probe = host.around(lambda: workload.run(inputs, None))
        plain.append(result)
        probes.append(probe)
        if trace:
            gc.collect()
            traced.append(host.around(traced_pass)[0])
    return plain, probes, traced


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        fail(f"cannot import the program under {ROOT / 'src'}: {exc}")
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]()

    def timed_setup():
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed)
        return inputs, time.perf_counter() - t0

    host = HostProbe()
    setups = []
    inputs = None
    for _ in range(SETUP_REPS):
        inputs = None  # free the previous inputs before building new ones
        gc.collect()
        (inputs, seconds), probe = host.around(timed_setup)
        setups.append((seconds, probe))
    context = run_context(workload, inputs, args.seed)

    plain, probes, traced = measure(
        workload, inputs, args.seconds, bool(args.trace), host
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_attempted, check_failed = workload.check(inputs)
    check_no_fallback()

    passes = plain + traced
    attempted = sum(p.attempted for p in passes) + check_attempted
    failed = sum(p.failed for p in passes) + check_failed
    values = {
        "wall_s": statistics.median(
            p.wall_s * PROBE_REF_S / probe for p, probe in zip(plain, probes)
        ),
        "setup_s": statistics.median(s * PROBE_REF_S / probe for s, probe in setups),
        "peak_rss_mb": peak_rss_mb,
        "wall_raw_s": statistics.median(p.wall_s for p in plain),
        "setup_raw_s": statistics.median(s for s, _ in setups),
        "host_speed": PROBE_REF_S / statistics.median(probes),
        "fail_frac": failed / attempted,
    }
    units = {
        "wall_s": "s",
        "setup_s": "s",
        "peak_rss_mb": "MB",
        "wall_raw_s": "s",
        "setup_raw_s": "s",
        "host_speed": "ratio",
        "fail_frac": "ratio",
    }
    for name in plain[0].e2e:
        values[name] = statistics.median(p.e2e[name] for p in plain)
        units[name] = WORKLOAD_UNITS[name]
    steps = [s for p in plain for s in p.step_ms]
    if steps:
        for q in (50, 90):
            values[f"step_p{q}_ms"] = percentile(steps, q)
            units[f"step_p{q}_ms"] = "ms"

    if args.trace:
        for m in spec["per_layer"]:
            values[m["name"]] = statistics.fmean(
                p.layers.get(m["name"], 0.0) for p in traced
            )
            units[m["name"]] = m["unit"]
        values["unaccounted_s"] = statistics.fmean(
            p.wall_s - p.covered_s for p in traced
        )
        values["trace_overhead_frac"] = (
            statistics.median(p.wall_s for p in traced) / values["wall_raw_s"] - 1
        )
        reported = [m["name"] for m in spec["per_layer"]]
    else:
        reported = [m["name"] for m in spec["end_to_end"]]

    print("context " + json.dumps(context, sort_keys=True))
    print(f"samples setup={len(setups)} passes={len(plain)} "
          f"traced_passes={len(traced)} steps={len(steps)}")
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in reported
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
