"""One function per table in the paper's evaluation.

Every function runs both schemes (fully random and double hashing) at a
configurable scale and returns an :class:`ExperimentTable` whose rows mirror
the paper's layout.  This module is the one place that knows how a paper
run is made: :func:`run_pair` holds the matched-seed protocol (fully
random at seed ``s``, the challenger at ``s + 1``), :func:`scheme_sweep`
the hash-family sweep, and ``python -m repro certify`` judges the tables
these functions return.

Each function takes an :class:`~repro.experiments.config.ExperimentSpec`
(defaults come from ``TABLE_DEFAULTS``, the same source the CLI uses)::

    table = table1_load_fractions(ExperimentSpec(n=2**14, trials=1000, seed=1))

Table-shape extras (``log2_n_values``, ``balls_per_bin``, ``lambdas``,
``d_values``) are ordinary keyword arguments and compose with a spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core import run_experiment, simulate_dleft
from repro.core.dleft import make_dleft_scheme
from repro.experiments.config import TABLE_DEFAULTS, ExperimentSpec
from repro.fluid import (
    equilibrium_mean_sojourn_time,
    solve_balls_bins,
    solve_dleft,
    solve_heavy_load,
)
from repro.hashing import DoubleHashingChoices, FullyRandomChoices, make_scheme
from repro.hashing.base import ChoiceScheme
from repro.metrics import MetricsRegistry
from repro.parallel.engine import ChunkProgress
from repro.queueing import SupermarketRun, simulate_supermarket
from repro.types import level_stats

__all__ = [
    "ExperimentTable",
    "run_pair",
    "scheme_sweep",
    "table1_load_fractions",
    "table2_fluid_vs_simulation",
    "table3_larger_n",
    "table4_max_load",
    "table5_level_stats",
    "table6_heavy_load",
    "table7_dleft",
    "table8_queueing",
]

ProgressHook = Callable[[ChunkProgress], None]


@dataclass
class ExperimentTable:
    """A reproduced table: header and measured rows.

    Attributes
    ----------
    table_id:
        Paper table identifier, e.g. ``"Table 1(a)"``.
    title:
        Caption-style description.
    columns:
        Column names, first column is the row key (e.g. load level).
    rows:
        List of row tuples aligned with ``columns``.
    meta:
        Run parameters (n, d, trials, …) for the report header.
    results:
        The runs the rows came from, keyed by role (``"random"``,
        ``"double"``; a sweep's ``"baseline"`` and scheme names).  Tables
        4 and 8 key one such pair per point (``log2_n``; ``(lambda, d)``).
        Not printed.
    fluid:
        The fluid-limit solution behind the fluid column (Tables 2, 6
        and 7), else ``None``.  Not printed.
    """

    table_id: str
    title: str
    columns: list[str]
    rows: list[tuple]
    meta: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict, repr=False)
    fluid: Any = field(default=None, repr=False)


def _spec_for(table: str, spec: ExperimentSpec | None) -> ExperimentSpec:
    """``spec``, or the table's ``TABLE_DEFAULTS`` entry when ``None``."""
    if spec is None:
        return TABLE_DEFAULTS[table]
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(
            f"{table} needs an ExperimentSpec, got {type(spec).__name__}"
        )
    return spec


def log2_size(n: int) -> int | None:
    """``k`` when ``n == 2**k``, else ``None``: the key the paper's
    Tables 3 and 7 give a table size by."""
    return n.bit_length() - 1 if n & (n - 1) == 0 else None


def _subrun(
    spec: ExperimentSpec, label: str, seed_offset: int = 0
) -> ExperimentSpec:
    """Derive the spec for one scheme's sub-run within a table.

    Offsets the seed (the historical per-scheme convention) and suffixes
    the checkpoint path so concurrent sub-runs never collide on one file.
    """
    changes: dict[str, Any] = {}
    if spec.seed is not None:
        changes["seed"] = spec.seed + seed_offset
    if spec.checkpoint:
        p = Path(spec.checkpoint)
        changes["checkpoint"] = str(p.with_name(f"{p.stem}.{label}{p.suffix}"))
    return spec.replace(**changes)


def run_pair(
    spec: ExperimentSpec,
    *,
    k: int = 0,
    point: str = "",
    schemes: tuple[ChoiceScheme, ChoiceScheme] | None = None,
    run: Callable[[ChoiceScheme, ExperimentSpec], Any] | None = None,
    metrics: MetricsRegistry | None = None,
    progress: ProgressHook | None = None,
) -> dict[str, Any]:
    """The paper's matched-seed pair: fully random, then the challenger.

    Fully random runs at seed ``s + 2k`` and the challenger at
    ``s + 2k + 1``, where ``k`` indexes the points of a per-point table
    (Table 4; Table 8 batches its pairs with these seeds) and ``point``
    labels their sub-runs.  ``schemes`` is ``(random, challenger)``, by
    default fully random and double hashing on ``spec``'s geometry.  ``run(scheme, sub_spec)`` simulates
    one side; by default :func:`~repro.core.run_experiment` with
    ``metrics`` and ``progress``.  Returns ``{"random": ..., "double":
    ...}``.
    """
    if schemes is None:
        schemes = (
            FullyRandomChoices(spec.n, spec.d),
            DoubleHashingChoices(spec.n, spec.d),
        )
    if run is None:
        def run(scheme, sub):
            return run_experiment(scheme, sub, metrics=metrics, progress=progress)
    tag = f"-{point}" if point else ""
    return {
        role: run(scheme, _subrun(spec, role + tag, 2 * k + i))
        for i, (role, scheme) in enumerate(zip(("random", "double"), schemes))
    }


def scheme_sweep(
    spec: ExperimentSpec,
    schemes: tuple[str, ...],
    *,
    metrics: MetricsRegistry | None = None,
    progress: ProgressHook | None = None,
) -> ExperimentTable:
    """Each named scheme against one fully random baseline.

    The baseline runs at seed ``s``; the ``k``-th scheme is built and
    run at ``s + 1 + k`` (the seed also draws its hash parameters).
    Each row is the scheme, the chi-square p of its load law against
    the baseline's, its mean per-trial max load and the baseline's.
    """
    from repro.analysis import compare_distributions

    base = run_experiment(
        FullyRandomChoices(spec.n, spec.d), _subrun(spec, "random"),
        metrics=metrics, progress=progress,
    )
    base_max = float(base.distribution.max_load_per_trial.mean())
    results = {"baseline": base}
    rows = []
    for k, name in enumerate(schemes):
        sub = _subrun(spec, name, 1 + k)
        res = results[name] = run_experiment(
            make_scheme(name, spec.n, spec.d, seed=sub.seed), sub,
            metrics=metrics, progress=progress,
        )
        p = compare_distributions(base.distribution, res.distribution).p_value
        rows.append(
            (name, p, float(res.distribution.max_load_per_trial.mean()), base_max)
        )
    return ExperimentTable(
        table_id="Scheme sweep",
        title=f"{spec.d} choices, n = {spec.n}, each scheme vs fully random",
        columns=["Scheme", "chi2 p vs random", "mean max load", "random mean max"],
        rows=rows,
        meta={"n": spec.n, "d": spec.d, "trials": spec.trials},
        results=results,
    )


def table1_load_fractions(
    spec: ExperimentSpec | None = None,
    *,
    metrics: MetricsRegistry | None = None,
    progress: ProgressHook | None = None,
) -> ExperimentTable:
    """Table 1: load fractions, random vs double, n balls into n bins."""
    spec = _spec_for("table1", spec)
    results = run_pair(spec, metrics=metrics, progress=progress)
    dr = results["random"].distribution
    dd = results["double"].distribution
    rows = [
        (load, dr.fraction_at(load), dd.fraction_at(load))
        for load in range(max(len(dr.counts), len(dd.counts)))
    ]
    sub = "a" if spec.d == 3 else "b"
    return ExperimentTable(
        table_id=f"Table 1({sub})",
        title=f"{spec.d} choices, n = {spec.n} balls and bins",
        columns=["Load", "Fully Random", "Double Hashing"],
        rows=rows,
        meta={"n": spec.n, "d": spec.d, "trials": spec.trials},
        results=results,
    )


def table2_fluid_vs_simulation(
    spec: ExperimentSpec | None = None,
    *,
    metrics: MetricsRegistry | None = None,
    progress: ProgressHook | None = None,
) -> ExperimentTable:
    """Table 2: fluid-limit tail fractions vs both simulated schemes."""
    spec = _spec_for("table2", spec)
    fluid = solve_balls_bins(spec.d, 1.0)
    results = run_pair(spec, metrics=metrics, progress=progress)
    dr = results["random"].distribution
    dd = results["double"].distribution
    rows = [
        (load, fluid.tail_at(load), dr.tail_at(load), dd.tail_at(load))
        for load in range(1, max(len(dr.counts), len(dd.counts)))
    ]
    return ExperimentTable(
        table_id="Table 2",
        title=f"{spec.d} choices, fluid limit (n = inf) vs n = {spec.n} "
        "balls and bins",
        columns=["Tail load >=", "Fluid Limit", "Fully Random", "Double Hashing"],
        rows=rows,
        meta={"n": spec.n, "d": spec.d, "trials": spec.trials},
        results=results,
        fluid=fluid,
    )


def table3_larger_n(
    spec: ExperimentSpec | None = None,
    *,
    metrics: MetricsRegistry | None = None,
    progress: ProgressHook | None = None,
) -> ExperimentTable:
    """Table 3: load fractions at larger table sizes (2^16, 2^18)."""
    spec = _spec_for("table3", spec)
    log2_n = log2_size(spec.n)
    table = table1_load_fractions(spec, metrics=metrics, progress=progress)
    size = spec.n if log2_n is None else f"2^{log2_n}"
    table.table_id = f"Table 3 (n = {size}, d = {spec.d})"
    return table


def table4_max_load(
    spec: ExperimentSpec | None = None,
    *,
    log2_n_values: tuple[int, ...] = (10, 11, 12, 13, 14),
    metrics: MetricsRegistry | None = None,
    progress: ProgressHook | None = None,
) -> ExperimentTable:
    """Table 4: percentage of trials whose maximum load is exactly 3."""
    spec = _spec_for("table4", spec)
    rows = []
    results = {}
    for k, log2_n in enumerate(log2_n_values):
        pair = results[log2_n] = run_pair(
            spec.replace(n=2**log2_n), k=k, point=str(log2_n),
            metrics=metrics, progress=progress,
        )
        rows.append(
            (
                f"2^{log2_n}",
                100.0 * pair["random"].distribution.fraction_trials_max_load(3),
                100.0 * pair["double"].distribution.fraction_trials_max_load(3),
            )
        )
    return ExperimentTable(
        table_id=f"Table 4 ({spec.d} choices)",
        title=f"Percentage of trials with maximum load 3, {spec.d} choices",
        columns=["n", "Fully Random", "Double Hashing"],
        rows=rows,
        meta={"d": spec.d, "trials": spec.trials},
        results=results,
    )


def table5_level_stats(
    spec: ExperimentSpec | None = None,
    *,
    metrics: MetricsRegistry | None = None,
    progress: ProgressHook | None = None,
) -> ExperimentTable:
    """Table 5: per-load min/avg/max/std of bin counts across trials."""
    spec = _spec_for("table5", spec)
    rows: list[tuple] = []
    results = run_pair(spec, metrics=metrics, progress=progress)
    for label, res in results.items():
        for load in range(res.histograms.shape[1]):
            st = level_stats(res.histograms, load)
            rows.append(
                (label, load, st.minimum, st.mean, st.maximum, st.std)
            )
    return ExperimentTable(
        table_id="Table 5",
        title=f"Sample statistics per load, {spec.d} choices, n = {spec.n}",
        columns=["Scheme", "Load", "min", "avg", "max", "std.dev."],
        rows=rows,
        meta={"n": spec.n, "d": spec.d, "trials": spec.trials},
        results=results,
    )


def table6_heavy_load(
    spec: ExperimentSpec | None = None,
    *,
    balls_per_bin: int = 16,
    metrics: MetricsRegistry | None = None,
    progress: ProgressHook | None = None,
) -> ExperimentTable:
    """Table 6: m = 16n balls into n bins — the higher-load regime."""
    spec = _spec_for("table6", spec)
    m = spec.n * balls_per_bin
    spec = spec.replace(n_balls=m)
    results = run_pair(spec, metrics=metrics, progress=progress)
    fluid = solve_heavy_load(spec.d, balls_per_bin)
    dr = results["random"].distribution
    dd = results["double"].distribution
    rows = [
        (load, dr.fraction_at(load), dd.fraction_at(load), fluid.fraction_at(load))
        for load in range(max(len(dr.counts), len(dd.counts)))
        if dr.fraction_at(load) > 0 or dd.fraction_at(load) > 0
    ]
    return ExperimentTable(
        table_id=f"Table 6 ({spec.d} choices)",
        title=f"{spec.d} choices, {m} balls into {spec.n} bins",
        columns=["Load", "Fully Random", "Double Hashing", "Fluid Limit"],
        rows=rows,
        meta={"n": spec.n, "m": m, "d": spec.d, "trials": spec.trials},
        results=results,
        fluid=fluid,
    )


def table7_dleft(spec: ExperimentSpec | None = None) -> ExperimentTable:
    """Table 7: Vöcking's d-left scheme, random vs double vs fluid."""
    spec = _spec_for("table7", spec)
    results = run_pair(
        spec,
        schemes=(
            make_dleft_scheme(spec.n, spec.d, "random"),
            make_dleft_scheme(spec.n, spec.d, "double"),
        ),
        run=lambda scheme, sub: simulate_dleft(
            scheme, sub.n, sub.trials, seed=sub.seed
        ).distribution(),
    )
    fluid = solve_dleft(spec.d, 1.0)
    dr, dd = results["random"], results["double"]
    width = max(len(dr.counts), len(dd.counts))
    rows = [
        (
            load,
            dr.fraction_at(load),
            dd.fraction_at(load),
            fluid.fraction_at(load),
        )
        for load in range(width)
    ]
    return ExperimentTable(
        table_id="Table 7",
        title=f"Vöcking's d-left scheme, {spec.d} choices, n = {spec.n}",
        columns=["Load", "Fully Random", "Double Hashing", "Fluid Limit"],
        rows=rows,
        meta={"n": spec.n, "d": spec.d, "trials": spec.trials},
        results=results,
        fluid=fluid,
    )


def table8_queueing(
    spec: ExperimentSpec | None = None,
    *,
    lambdas: tuple[float, ...] = (0.9, 0.99),
    d_values: tuple[int, ...] = (3, 4),
) -> ExperimentTable:
    """Table 8: supermarket model, mean time in system.

    Scaled down from the paper's n = 2^14 / 10000 s / 100 runs; the
    equilibrium fluid-limit column provides the scale-free reference the
    simulated values converge to.  Every cell's pair runs in one kernel
    call, with :func:`run_pair`'s seeds: fully random at ``s + 2k``,
    double hashing at ``s + 2k + 1`` for the ``k``-th ``(lambda, d)``.
    """
    spec = _spec_for("table8", spec)
    cells = [(lam, d_now) for lam in lambdas for d_now in d_values]
    schemes = (FullyRandomChoices, DoubleHashingChoices)
    runs = [
        SupermarketRun(
            scheme(spec.n, d_now), lam, spec.sim_time,
            burn_in=spec.effective_burn_in,
            seed=None if spec.seed is None else spec.seed + 2 * k + i,
        )
        for k, (lam, d_now) in enumerate(cells)
        for i, scheme in enumerate(schemes)
    ]
    out = iter(simulate_supermarket(runs, backend=spec.backend))
    results = {cell: {"random": next(out), "double": next(out)} for cell in cells}
    rows = [
        (
            lam,
            d_now,
            pair["random"].mean_sojourn_time,
            pair["double"].mean_sojourn_time,
            equilibrium_mean_sojourn_time(lam, d_now),
        )
        for (lam, d_now), pair in results.items()
    ]
    return ExperimentTable(
        table_id="Table 8",
        title=f"n = {spec.n} queues, average time in system",
        columns=[
            "lambda", "Choices", "Fully Random", "Double Hashing",
            "Fluid Equilibrium",
        ],
        rows=rows,
        meta={
            "n": spec.n,
            "sim_time": spec.sim_time,
            "burn_in": spec.effective_burn_in,
        },
        results=results,
    )
