"""One function per table in the paper's evaluation.

Every function runs both schemes (fully random and double hashing) at a
configurable scale and returns an :class:`ExperimentTable` whose rows mirror
the paper's layout, with the published values attached for side-by-side
reporting.

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

import numpy as np

from repro.core import run_experiment, simulate_dleft
from repro.core.dleft import make_dleft_scheme
from repro.experiments.config import PAPER_VALUES, TABLE_DEFAULTS, ExperimentSpec
from repro.fluid import (
    equilibrium_mean_sojourn_time,
    solve_balls_bins,
    solve_dleft,
    solve_heavy_load,
)
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.metrics import MetricsRegistry
from repro.parallel.engine import ChunkProgress
from repro.queueing import simulate_supermarket

__all__ = [
    "ExperimentTable",
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
    """A reproduced table: header, measured rows, and paper reference.

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
    paper:
        The published values relevant to this run (shape varies by table).
    meta:
        Run parameters (n, d, trials, …) for the report header.
    """

    table_id: str
    title: str
    columns: list[str]
    rows: list[tuple]
    paper: Any
    meta: dict = field(default_factory=dict)


def _spec_for(table: str, spec: ExperimentSpec | None) -> ExperimentSpec:
    """``spec``, or the table's ``TABLE_DEFAULTS`` entry when ``None``."""
    if spec is None:
        return TABLE_DEFAULTS[table]
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(
            f"{table} needs an ExperimentSpec, got {type(spec).__name__}"
        )
    return spec


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


def table1_load_fractions(
    spec: ExperimentSpec | None = None,
    *,
    metrics: MetricsRegistry | None = None,
    progress: ProgressHook | None = None,
) -> ExperimentTable:
    """Table 1: load fractions, random vs double, n balls into n bins."""
    spec = _spec_for("table1", spec)
    random_res = run_experiment(
        FullyRandomChoices(spec.n, spec.d),
        _subrun(spec, "random"),
        metrics=metrics,
        progress=progress,
    )
    double_res = run_experiment(
        DoubleHashingChoices(spec.n, spec.d),
        _subrun(spec, "double", seed_offset=1),
        metrics=metrics,
        progress=progress,
    )
    fr = random_res.distribution.fractions
    fd = double_res.distribution.fractions
    width = max(len(fr), len(fd))
    rows = [
        (
            load,
            float(fr[load]) if load < len(fr) else 0.0,
            float(fd[load]) if load < len(fd) else 0.0,
        )
        for load in range(width)
    ]
    sub = "a" if spec.d == 3 else "b"
    return ExperimentTable(
        table_id=f"Table 1({sub})",
        title=f"{spec.d} choices, n = {spec.n} balls and bins",
        columns=["Load", "Fully Random", "Double Hashing"],
        rows=rows,
        paper={
            "random": PAPER_VALUES["table1"].get((spec.d, "random"), {}),
            "double": PAPER_VALUES["table1"].get((spec.d, "double"), {}),
        },
        meta={"n": spec.n, "d": spec.d, "trials": spec.trials},
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
    random_res = run_experiment(
        FullyRandomChoices(spec.n, spec.d),
        _subrun(spec, "random"),
        metrics=metrics,
        progress=progress,
    )
    double_res = run_experiment(
        DoubleHashingChoices(spec.n, spec.d),
        _subrun(spec, "double", seed_offset=1),
        metrics=metrics,
        progress=progress,
    )
    max_tail = max(
        len(random_res.distribution.counts), len(double_res.distribution.counts)
    )
    rows = [
        (
            load,
            fluid.tail_at(load),
            random_res.distribution.tail_at(load),
            double_res.distribution.tail_at(load),
        )
        for load in range(1, max_tail)
    ]
    return ExperimentTable(
        table_id="Table 2",
        title=f"{spec.d} choices, fluid limit (n = inf) vs n = {spec.n} "
        "balls and bins",
        columns=["Tail load >=", "Fluid Limit", "Fully Random", "Double Hashing"],
        rows=rows,
        paper=PAPER_VALUES["table2"],
        meta={"n": spec.n, "d": spec.d, "trials": spec.trials},
    )


def table3_larger_n(
    spec: ExperimentSpec | None = None,
    *,
    metrics: MetricsRegistry | None = None,
    progress: ProgressHook | None = None,
) -> ExperimentTable:
    """Table 3: load fractions at larger table sizes (2^16, 2^18)."""
    spec = _spec_for("table3", spec)
    spec = spec.replace(n=2**spec.log2_n)
    table = table1_load_fractions(spec, metrics=metrics, progress=progress)
    table.table_id = f"Table 3 (n = 2^{spec.log2_n}, d = {spec.d})"
    table.paper = {
        "random": PAPER_VALUES["table3"].get((spec.log2_n, spec.d, "random"), {}),
        "double": PAPER_VALUES["table3"].get((spec.log2_n, spec.d, "double"), {}),
    }
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
    for k, log2_n in enumerate(log2_n_values):
        n = 2**log2_n
        point = spec.replace(n=n)
        random_res = run_experiment(
            FullyRandomChoices(n, spec.d),
            _subrun(point, f"random-{log2_n}", seed_offset=2 * k),
            metrics=metrics,
            progress=progress,
        )
        double_res = run_experiment(
            DoubleHashingChoices(n, spec.d),
            _subrun(point, f"double-{log2_n}", seed_offset=2 * k + 1),
            metrics=metrics,
            progress=progress,
        )
        rows.append(
            (
                f"2^{log2_n}",
                100.0 * random_res.distribution.fraction_trials_max_load(3),
                100.0 * double_res.distribution.fraction_trials_max_load(3),
            )
        )
    return ExperimentTable(
        table_id=f"Table 4 ({spec.d} choices)",
        title=f"Percentage of trials with maximum load 3, {spec.d} choices",
        columns=["n", "Fully Random", "Double Hashing"],
        rows=rows,
        paper={
            "random": PAPER_VALUES["table4"].get((spec.d, "random"), {}),
            "double": PAPER_VALUES["table4"].get((spec.d, "double"), {}),
        },
        meta={"d": spec.d, "trials": spec.trials},
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
    paper = PAPER_VALUES["table5"]
    for label, scheme, offset in (
        ("random", FullyRandomChoices(spec.n, spec.d), 0),
        ("double", DoubleHashingChoices(spec.n, spec.d), 1),
    ):
        res = run_experiment(
            scheme,
            _subrun(spec, label, seed_offset=offset),
            metrics=metrics,
            progress=progress,
        )
        top = len(res.distribution.counts) - 1
        for load in range(top + 1):
            st = res.aggregator.level_stats(load)
            rows.append(
                (label, load, st.minimum, st.mean, st.maximum, st.std)
            )
    return ExperimentTable(
        table_id="Table 5",
        title=f"Sample statistics per load, {spec.d} choices, n = {spec.n}",
        columns=["Scheme", "Load", "min", "avg", "max", "std.dev."],
        rows=rows,
        paper=paper,
        meta={"n": spec.n, "d": spec.d, "trials": spec.trials},
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
    random_res = run_experiment(
        FullyRandomChoices(spec.n, spec.d),
        _subrun(spec, "random"),
        metrics=metrics,
        progress=progress,
    )
    double_res = run_experiment(
        DoubleHashingChoices(spec.n, spec.d),
        _subrun(spec, "double", seed_offset=1),
        metrics=metrics,
        progress=progress,
    )
    fluid = solve_heavy_load(spec.d, balls_per_bin)
    fr = random_res.distribution.fractions
    fd = double_res.distribution.fractions
    width = max(len(fr), len(fd))
    rows = [
        (
            load,
            float(fr[load]) if load < len(fr) else 0.0,
            float(fd[load]) if load < len(fd) else 0.0,
            fluid.fraction_at(load),
        )
        for load in range(width)
        if (load < len(fr) and fr[load] > 0)
        or (load < len(fd) and fd[load] > 0)
    ]
    return ExperimentTable(
        table_id=f"Table 6 ({spec.d} choices)",
        title=f"{spec.d} choices, {m} balls into {spec.n} bins",
        columns=["Load", "Fully Random", "Double Hashing", "Fluid Limit"],
        rows=rows,
        paper={
            "random": PAPER_VALUES["table6"].get((spec.d, "random"), {}),
            "double": PAPER_VALUES["table6"].get((spec.d, "double"), {}),
        },
        meta={"n": spec.n, "m": m, "d": spec.d, "trials": spec.trials},
    )


def table7_dleft(spec: ExperimentSpec | None = None) -> ExperimentTable:
    """Table 7: Vöcking's d-left scheme, random vs double vs fluid."""
    spec = _spec_for("table7", spec)
    random_batch = simulate_dleft(
        make_dleft_scheme(spec.n, spec.d, "random"),
        spec.n,
        spec.trials,
        seed=spec.seed,
    )
    double_batch = simulate_dleft(
        make_dleft_scheme(spec.n, spec.d, "double"),
        spec.n,
        spec.trials,
        seed=None if spec.seed is None else spec.seed + 1,
    )
    fluid = solve_dleft(spec.d, 1.0)
    dr = random_batch.distribution()
    dd = double_batch.distribution()
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
    log2_n = int(np.log2(spec.n)) if (spec.n & (spec.n - 1)) == 0 else None
    return ExperimentTable(
        table_id="Table 7",
        title=f"Vöcking's d-left scheme, {spec.d} choices, n = {spec.n}",
        columns=["Load", "Fully Random", "Double Hashing", "Fluid Limit"],
        rows=rows,
        paper={
            "random": PAPER_VALUES["table7"].get((log2_n, "random"), {}),
            "double": PAPER_VALUES["table7"].get((log2_n, "double"), {}),
        },
        meta={"n": spec.n, "d": spec.d, "trials": spec.trials},
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
    simulated values converge to.
    """
    spec = _spec_for("table8", spec)
    rows = []
    k = 0
    for lam in lambdas:
        for d_now in d_values:
            res_r = simulate_supermarket(
                FullyRandomChoices(spec.n, d_now), lam, spec.sim_time,
                burn_in=spec.effective_burn_in,
                seed=None if spec.seed is None else spec.seed + 2 * k,
                backend=spec.backend,
            )
            res_d = simulate_supermarket(
                DoubleHashingChoices(spec.n, d_now), lam, spec.sim_time,
                burn_in=spec.effective_burn_in,
                seed=None if spec.seed is None else spec.seed + 2 * k + 1,
                backend=spec.backend,
            )
            rows.append(
                (
                    lam,
                    d_now,
                    res_r.mean_sojourn_time,
                    res_d.mean_sojourn_time,
                    equilibrium_mean_sojourn_time(lam, d_now),
                )
            )
            k += 1
    return ExperimentTable(
        table_id="Table 8",
        title=f"n = {spec.n} queues, average time in system",
        columns=[
            "lambda", "Choices", "Fully Random", "Double Hashing",
            "Fluid Equilibrium",
        ],
        rows=rows,
        paper=PAPER_VALUES["table8"],
        meta={
            "n": spec.n,
            "sim_time": spec.sim_time,
            "burn_in": spec.effective_burn_in,
        },
    )
