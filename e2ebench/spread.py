#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 e2ebench/spread.py --workload serve --seeds 1-10 --seconds 20
    python3 e2ebench/spread.py --workload serve --seeds 11-20 --seconds 20 \\
        --baseline first.json --out second.json

Runs ``e2ebench/run.py`` once per seed, one run at a time, and prints for
every ``metric`` line the median, the quartiles and the interquartile
spread as a share of the median (``statistics.quantiles(values, n=4)``).
For the end-to-end metrics of BENCHMARK.json it also flags a spread above
a third of the metric's bound, and with ``--baseline`` (a file an earlier
``--out`` wrote) the change of each median against the baseline's, flagged
when it is worse than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    values = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, _unit = line.split(" ", 3)
            values[name] = float(value)
    return {"seed": seed, "correct": result["correct"], "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="write the per-run values here")
    parser.add_argument("--baseline", type=Path, help="an earlier --out file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.workload, seed, args.seconds, args.trace))
        print(f"seed {seed} done: correct={runs[-1]['correct']}", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    base = json.loads(args.baseline.read_text()) if args.baseline else None

    ok = all(r["correct"] for r in runs)
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  note")
    for name in runs[0]["values"]:
        values = [r["values"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        note = []
        if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
            note.append(f"spread above bound/3 ({bounds[name] / 3:.3f})")
        if base and name in bounds:
            base_med = statistics.median(r["values"][name] for r in base)
            change = med / base_med - 1
            worse = change if better[name] == "lower" else -change
            note.append(f"median {change:+.3%} vs baseline")
            if worse > bounds[name]:
                note.append("WORSE THAN BOUND")
                ok = False
        print(f"{name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  "
              + "; ".join(note))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
