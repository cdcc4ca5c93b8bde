"""Command-line interface: ``python -m repro <command> [options]``.

Commands
--------
- ``table1`` … ``table8`` — regenerate one paper table and print it;
- ``certify`` — run a certification tier (``--tier smoke|standard|full``)
  against the paper-anchor registry and write ``certification.json``;
  ``--check-drift`` instead verifies EXPERIMENTS.md's paper columns
  against the registry without running anything;
- ``compare`` — run both schemes on a custom geometry and print the
  statistical indistinguishability report (``--scheme`` swaps the
  challenger drawn from the unified scheme registry);
- ``serve`` — drive a keyed workload through the service layer
  (:mod:`repro.service`) and print throughput + tail-load SLOs, e.g.
  ``python -m repro serve --scheme tabulation --keys 5e6 --churn 0.5``;
- ``fluid`` — print fluid-limit tail fractions for a given d and T;
- ``peeling`` — peeling threshold sweep;
- ``reconcile`` — two-party IBLT set reconciliation: build, subtract,
  peel the delta, double-hashed vs fully-random cells;
- ``list`` — list available commands.

The CLI is a thin veneer over :mod:`repro.experiments`; everything it
prints is available programmatically.  Subcommand defaults come from the
same per-table :class:`~repro.experiments.config.ExperimentSpec` objects
the ``table*`` functions use (``TABLE_DEFAULTS``), so the CLI and the
programmatic path cannot drift.  Each subcommand registers only the
flags its function reads, so an ignored flag is a usage error.

Engine flags (``table1`` … ``table6`` and ``compare``, the commands that
run through the chunked engine): ``--workers`` sets how many processes
run a sweep's chunks, and never changes what it prints (the chunks
follow from the run alone); ``--checkpoint <path>.jsonl`` makes a sweep
resumable (a run that fails stops at once, and rerunning the same
command, at any ``--workers``, resumes it); ``--metrics-out
<path>.json`` writes the run's metrics snapshot; and ``--progress``
streams per-chunk completions to stderr.  See ``docs/engine.md``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.experiments import format_table
from repro.experiments import tables as _tables
from repro.experiments.config import TABLE_DEFAULTS, ExperimentSpec
from repro.hashing.registry import keyed_scheme_names, scheme_names
from repro.kernels.keymap import KNOWN_KEYMAP_BACKENDS
from repro.metrics import MetricsRegistry
from repro.parallel.engine import ChunkProgress

__all__ = ["main", "build_parser"]

_RUN_FIELDS = ("n", "d", "trials", "seed")

#: Table subcommands that run through the chunked engine: the spec
#: fields each one reads, and its table function.
_ENGINE_TABLES = {
    "table1": (_RUN_FIELDS, _tables.table1_load_fractions),
    "table2": (_RUN_FIELDS, _tables.table2_fluid_vs_simulation),
    "table3": (("log2_n", "d", "trials", "seed"), _tables.table3_larger_n),
    "table4": (("d", "trials", "seed"), _tables.table4_max_load),
    "table5": (_RUN_FIELDS, _tables.table5_level_stats),
    "table6": (_RUN_FIELDS, _tables.table6_heavy_load),
}

#: Tables 7 and 8 run their own simulators, so they take no engine flags.
_PLAIN_TABLES = {
    "table7": (
        _RUN_FIELDS,
        lambda spec: _tables.table7_dleft(spec.replace(d=max(spec.d, 2))),
    ),
    "table8": (("n", "sim_time", "seed"), _tables.table8_queueing),
}

_ENGINE_FIELDS = ("workers", "block", "checkpoint")

#: Flag and argparse options for each spec field the CLI can set.
_SPEC_FLAGS: dict[str, tuple[str, dict]] = {
    "n": ("--n", dict(type=int, help="bins (and balls)")),
    "log2_n": ("--log2-n", dict(type=int, help="table size is 2**LOG2_N")),
    "d": ("--d", dict(type=int, help="choices per ball")),
    "trials": ("--trials", dict(type=int)),
    "seed": ("--seed", dict(type=int)),
    "sim_time": ("--sim-time", dict(type=float, help="simulated time")),
    "workers": ("--workers", dict(
        type=int, help="processes running the chunks (never changes results)")),
    "block": ("--block", dict(
        type=int,
        help="ball-steps per kernel superblock (default: sweep-derived)")),
    "checkpoint": ("--checkpoint", dict(
        metavar="PATH.jsonl",
        help="chunk-level checkpoint file; re-running resumes from it")),
}


def _dest(field: str) -> str:
    """The argparse destination of the flag that sets spec ``field``."""
    return _SPEC_FLAGS[field][0][2:].replace("-", "_")


def _command_fields(command: str) -> tuple[str, ...]:
    """The spec fields subcommand ``command`` registers flags for."""
    if command in _PLAIN_TABLES:
        return _PLAIN_TABLES[command][0]
    run = _ENGINE_TABLES[command][0] if command in _ENGINE_TABLES else _RUN_FIELDS
    return run + _ENGINE_FIELDS


def _add_spec_options(
    p: argparse.ArgumentParser, command: str, spec: ExperimentSpec
) -> None:
    """Register ``command``'s experiment options, defaulted from ``spec``."""
    for field in _command_fields(command):
        flag, options = _SPEC_FLAGS[field]
        p.add_argument(flag, default=getattr(spec, field), **options)
    if command not in _PLAIN_TABLES:
        p.add_argument(
            "--metrics-out", default=None, dest="metrics_out",
            metavar="PATH.json",
            help="write run metrics (counters, timings, chunks) here",
        )
        p.add_argument(
            "--progress", action="store_true",
            help="print per-chunk completions to stderr",
        )


def _spec_from_args(command: str, args: argparse.Namespace) -> ExperimentSpec:
    """Materialize the run spec for a parsed subcommand."""
    base = TABLE_DEFAULTS.get(command, ExperimentSpec())
    return base.replace(
        **{f: getattr(args, _dest(f)) for f in _command_fields(command)}
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Balanced Allocations and Double Hashing' "
            "(Mitzenmacher, SPAA 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in sorted({**_ENGINE_TABLES, **_PLAIN_TABLES}):
        _add_spec_options(
            sub.add_parser(name, help=f"regenerate paper {name}"),
            name,
            TABLE_DEFAULTS[name],
        )

    compare = sub.add_parser(
        "compare", help="double vs random on a custom geometry"
    )
    _add_spec_options(compare, "compare", ExperimentSpec())
    compare.add_argument(
        "--scheme", choices=list(scheme_names()), default=None,
        help="challenger scheme vs fully random "
             "(default: REPRO_SCHEME, then 'double')",
    )

    serve = sub.add_parser(
        "serve",
        help="keyed service workload: throughput + tail-load SLOs",
    )
    serve.add_argument(
        "--scheme", choices=list(keyed_scheme_names()), default=None,
        help="keyed placement scheme (default: REPRO_SCHEME, then 'double')",
    )
    serve.add_argument(
        "--bins", type=float, default=2**16,
        help="number of bins (accepts 65536 or 6.5e4 forms)",
    )
    serve.add_argument("--d", type=int, default=2, help="choices per key")
    serve.add_argument(
        "--keys", type=float, default=2**18,
        help="insert operations in the stream (accepts 5e6-style floats)",
    )
    serve.add_argument("--batch", type=int, default=8192,
                       help="nominal inserts per workload step")
    serve.add_argument("--churn", type=float, default=0.0,
                       help="delete attempts per insert")
    serve.add_argument("--lookups", type=float, default=0.0,
                       help="lookups per insert")
    serve.add_argument("--popularity", choices=["uniform", "zipf"],
                       default="uniform",
                       help="victim/lookup key popularity model")
    serve.add_argument("--zipf-s", type=float, default=1.2, dest="zipf_s",
                       help="Zipf exponent for --popularity zipf")
    serve.add_argument("--arrival", choices=["constant", "ramp", "sine"],
                       default="constant", help="per-step intensity shape")
    serve.add_argument("--shards", type=int, default=1,
                       help="shard count (power of two; 1 = single store)")
    serve.add_argument(
        "--backend", choices=list(KNOWN_KEYMAP_BACKENDS), default=None,
        help="assignment-map backend (default: REPRO_BACKEND, then numpy)",
    )
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--micro-batch", type=int, default=None,
                       dest="micro_batch",
                       help="keys per placement micro-batch")
    serve.add_argument("--slo-samples", type=int, default=32,
                       dest="slo_samples",
                       help="tail-SLO samples over the run (0 disables)")
    serve.add_argument("--metrics-out", default=None, dest="metrics_out",
                       metavar="PATH.json",
                       help="write the metrics snapshot (incl. SLO series)")

    fluid = sub.add_parser("fluid", help="fluid-limit tail fractions")
    fluid.add_argument("--d", type=int, default=3)
    fluid.add_argument("--t", type=float, default=1.0)
    fluid.add_argument("--levels", type=int, default=6)

    zoo = sub.add_parser("zoo", help="all schemes side by side")
    zoo.add_argument("--n", type=int, default=4096, help="bins (and balls)")
    zoo.add_argument("--d", type=int, default=4,
                     help="choices per ball (even, dividing --n)")
    zoo.add_argument("--trials", type=int, default=50)
    zoo.add_argument("--seed", type=int, default=1)

    peeling = sub.add_parser(
        "peeling", help="peeling threshold sweep (follow-up paper [30])"
    )
    peeling.add_argument("--n", type=int, default=2048)
    peeling.add_argument("--d", type=int, default=3)
    peeling.add_argument("--trials", type=int, default=8)
    peeling.add_argument("--seed", type=int, default=1)

    reconcile = sub.add_parser(
        "reconcile",
        help="two-party IBLT set reconciliation (peel the difference)",
    )
    reconcile.add_argument(
        "--items", type=float, default=1e6,
        help="items per party (accepts 1e6-style floats)",
    )
    reconcile.add_argument(
        "--diff", type=float, default=1e3,
        help="symmetric-difference size (the delta to recover)",
    )
    reconcile.add_argument("--d", type=int, default=3, help="cells per key")
    reconcile.add_argument(
        "--mode", choices=["double", "random", "both"], default="both",
        help="cell-selection mode ('both' runs the comparison)",
    )
    reconcile.add_argument(
        "--cells", type=int, default=None,
        help="IBLT cells (default: sized from --diff via the peeling "
             "threshold)",
    )
    reconcile.add_argument("--seed", type=int, default=1)

    certify = sub.add_parser(
        "certify",
        help="statistical certification against the paper-anchor registry",
    )
    certify.add_argument(
        "--tier", choices=["smoke", "standard", "full"], default="smoke",
        help="budget/threshold tier (see docs/certification.md)",
    )
    certify.add_argument(
        "--out", default="certification.json", metavar="PATH.json",
        help="where to write the machine-readable verdict",
    )
    certify.add_argument("--workers", type=int, default=None)
    certify.add_argument(
        "--progress", action="store_true",
        help="print per-chunk completions to stderr",
    )
    certify.add_argument(
        "--check-drift", action="store_true",
        help="only verify EXPERIMENTS.md paper columns against the "
             "registry (fast, no experiments)",
    )
    certify.add_argument(
        "--experiments-md", default="EXPERIMENTS.md", dest="experiments_md",
        metavar="PATH.md", help="document for --check-drift / --emit-experiments-md",
    )
    certify.add_argument(
        "--emit-experiments-md", action="store_true", dest="emit_experiments_md",
        help="regenerate the EXPERIMENTS.md document (runs experiments, "
             "a few minutes)",
    )

    # Registered last, so its default sees every command name.
    sub.add_parser("list", help="list available commands").set_defaults(
        commands=sorted(sub.choices)
    )
    return parser


def _print_progress(event: ChunkProgress) -> None:
    print(
        f"[engine] chunk {event.done}/{event.total} done "
        f"(index {event.index}, {event.trials} trials, "
        f"{event.seconds:.3f}s, {event.source})",
        file=sys.stderr,
    )


def _save_metrics(metrics: MetricsRegistry, path: str | None) -> None:
    if path:
        metrics.save(path)
        print(f"[metrics] wrote {path}", file=sys.stderr)


def _run_compare(args) -> int:
    from repro.analysis import compare_distributions
    from repro.hashing import FullyRandomChoices, resolve_scheme_name

    spec = _spec_from_args("compare", args).replace(scheme=args.scheme)
    scheme_name = resolve_scheme_name(spec.scheme)
    metrics = MetricsRegistry()
    pair = _tables.run_pair(
        spec,
        schemes=(
            FullyRandomChoices(spec.n, spec.d),
            spec.build_scheme(seed=spec.seed),
        ),
        metrics=metrics,
        progress=_print_progress if args.progress else None,
    )
    report = compare_distributions(
        pair["random"].distribution, pair["double"].distribution
    )
    print(f"n={spec.n} d={spec.d} trials={spec.trials} "
          f"scheme={scheme_name} (vs fully random)")
    print(f"TV distance:        {report.tv_distance:.6f}")
    print(f"chi-square p-value: {report.p_value:.4f}")
    print(f"max deviation:      {report.max_deviation:.6f} "
          f"({report.max_deviation_sigmas:.2f} sigmas)")
    print("verdict: " + (
        "indistinguishable" if report.indistinguishable else "DIFFERENT"
    ))
    _save_metrics(metrics, args.metrics_out)
    return 0


def _run_serve(args) -> int:
    from repro.service import DEFAULT_MICRO_BATCH, WorkloadSpec
    from repro.service import run_service_workload

    spec = WorkloadSpec(
        n_keys=int(args.keys),
        batch=args.batch,
        churn=args.churn,
        lookups=args.lookups,
        popularity=args.popularity,
        zipf_s=args.zipf_s,
        arrival=args.arrival,
    )
    metrics = MetricsRegistry()
    report = run_service_workload(
        spec,
        n_bins=int(args.bins),
        d=args.d,
        scheme=args.scheme,
        n_shards=args.shards,
        seed=args.seed,
        micro_batch=(
            args.micro_batch if args.micro_batch is not None
            else DEFAULT_MICRO_BATCH
        ),
        backend=args.backend,
        slo_samples=args.slo_samples,
        metrics=metrics,
    )
    print(f"scheme={report.scheme} bins={report.n_bins} d={report.d} "
          f"shards={report.n_shards} backend={report.backend}")
    print(f"ops={report.ops} (inserts={report.inserts} "
          f"deletes={report.deletes} lookups={report.lookups}) "
          f"live={report.size}")
    print(f"throughput: {report.ops_per_sec:,.0f} ops/s total, "
          f"{report.insert_ops_per_sec:,.0f} insert ops/s")
    print(f"tail loads: max={report.max_load} p50={report.p50:.1f} "
          f"p99={report.p99:.1f} p999={report.p999:.1f}")
    print(f"slo samples: {len(report.slo_series)}")
    _save_metrics(metrics, args.metrics_out)
    return 0


def _run_fluid(args) -> int:
    from repro.fluid import solve_balls_bins

    fl = solve_balls_bins(args.d, args.t, max_load=max(args.levels, 4))
    print(f"d={args.d}, T={args.t}: fraction of bins with load >= i")
    for i in range(1, args.levels + 1):
        print(f"  i={i}: {fl.tail_at(i):.6g}")
    return 0


def _run_zoo(args) -> int:
    from repro.experiments.extra import scheme_zoo_experiment

    zoo = scheme_zoo_experiment(
        args.n, trials=args.trials, d=args.d, seed=args.seed
    )
    print(f"{'scheme':<20} {'empty':>9} {'load>=2':>9} {'mean max':>9}")
    for name, stats in zoo.items():
        print(f"{name:<20} {stats['empty']:>9.5f} {stats['tail2']:>9.5f} "
              f"{stats['max_load']:>9.2f}")
    return 0


def _run_peeling(args) -> int:
    from repro.peeling import threshold_experiment

    exp = threshold_experiment(
        args.n, args.d, [0.70, 0.78, 0.86, 0.94],
        trials=args.trials, seed=args.seed,
    )
    print(f"asymptotic threshold c*({args.d}) = "
          f"{exp.asymptotic_threshold:.5f}")
    print(f"{'density':>8} {'P(ok) rand':>11} {'P(ok) dbl':>10} "
          f"{'core rand':>10} {'core dbl':>9}")
    for i, c in enumerate(exp.densities):
        print(f"{c:>8.2f} {exp.success_random[i]:>11.2f} "
              f"{exp.success_double[i]:>10.2f} "
              f"{exp.core_fraction_random[i]:>10.4f} "
              f"{exp.core_fraction_double[i]:>9.4f}")
    return 0


def _run_reconcile(args) -> int:
    from repro.extensions.reconcile import run_reconciliation

    modes = ["double", "random"] if args.mode == "both" else [args.mode]
    n_items = int(args.items)
    n_diff = int(args.diff)
    failures = 0
    for mode in modes:
        r = run_reconciliation(
            n_items, n_diff, d=args.d, mode=mode,
            cells=args.cells, seed=args.seed,
        )
        verdict = "recovered" if r.success else (
            f"INCOMPLETE (missed={r.missed} spurious={r.spurious} "
            f"residue={r.residue_cells})"
        )
        print(f"[{mode:>6}] items={r.n_items:,} diff={r.n_diff:,} "
              f"cells={r.cells:,} d={r.d}: {verdict}")
        print(f"         delta |A\\B|={r.only_in_a.size} "
              f"|B\\A|={r.only_in_b.size} in {r.rounds} rounds")
        print(f"         build {r.build_seconds:.3f}s "
              f"({r.n_items / max(r.build_seconds, 1e-9):,.0f} items/s), "
              f"subtract+peel {r.reconcile_seconds:.3f}s "
              f"({r.delta_per_second:,.0f} delta keys/s)")
        failures += not r.success
    return 1 if failures else 0


def _run_certify(args) -> int:
    from repro.certify import (
        check_experiments_md_drift,
        render_experiments_md,
        run_certification,
    )
    from repro.certify.verdict import format_summary, write_certification

    if args.check_drift:
        problems = check_experiments_md_drift(args.experiments_md)
        for problem in problems:
            print(f"[drift] {problem}", file=sys.stderr)
        print(
            f"{args.experiments_md}: "
            + ("in sync with the anchor registry" if not problems
               else f"{len(problems)} paper-column mismatches")
        )
        return 1 if problems else 0
    if args.emit_experiments_md:
        progress = _print_progress if args.progress else None
        text = render_experiments_md(progress=progress)
        with open(args.experiments_md, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.experiments_md}")
        return 0
    progress = _print_progress if args.progress else None
    cert = run_certification(args.tier, workers=args.workers, progress=progress)
    write_certification(cert, args.out)
    print(format_summary(cert))
    print(f"wrote {args.out}")
    return 0 if cert.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print("commands: " + " ".join(args.commands))
        return 0
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "certify":
        return _run_certify(args)
    if args.command == "zoo":
        return _run_zoo(args)
    if args.command == "peeling":
        return _run_peeling(args)
    if args.command == "reconcile":
        return _run_reconcile(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "fluid":
        return _run_fluid(args)
    spec = _spec_from_args(args.command, args)
    if args.command in _PLAIN_TABLES:
        print(format_table(_PLAIN_TABLES[args.command][1](spec)))
        return 0
    metrics = MetricsRegistry()
    progress = _print_progress if args.progress else None
    table = _ENGINE_TABLES[args.command][1](
        spec, metrics=metrics, progress=progress
    )
    print(format_table(table))
    _save_metrics(metrics, args.metrics_out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
