"""The tiered certification runner.

Runs every table of a :class:`~repro.certify.tiers.CertificationTier`
through the table function the ``table1`` … ``table8`` subcommands print
(:mod:`repro.experiments.tables`; the schemes cells through its
``scheme_sweep``) and turns the paper's claims about the runs each table
keeps into typed :class:`CheckResult` records of four kinds:

``anchor``
    A measured value against the published cell, within
    ``anchor_z`` standard errors (at the tier's trial budget) plus the
    paper's rounding quantum.
``equivalence``
    The headline claim: random vs double must be statistically
    indistinguishable.  Chi-square homogeneity per table (with
    small-cell merging), Cramér's V effect sizes, and a Holm correction
    across the whole family of tests so the family-wise false-rejection
    rate is the tier's ``alpha``.
``fluid``
    Closed-form fluid-limit quantities against published cells —
    solver precision, no sampling involved.
``bootstrap``
    Percentile-bootstrap confidence intervals on max-load statistics;
    the two schemes' intervals must overlap.

:func:`run_certification` returns a :class:`Certification` whose
``to_dict()`` serializes to the ``certification.json`` schema enforced
by :mod:`repro.certify.verdict`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from math import sqrt
from typing import Any, Callable

import numpy as np

from repro.analysis import (
    bootstrap_mean_ci,
    compare_distributions,
    compare_max_loads,
    cramers_v,
    holm_correction,
)
from repro.certify.anchors import PAPER_SOURCE, REGISTRY, anchor
from repro.certify.tiers import TIERS, CertificationTier, TableRun
from repro.certify.verdict import SCHEMA_VERSION
from repro.experiments import tables
from repro.fluid import equilibrium_mean_sojourn_time
from repro.kernels import resolve_backend
from repro.metrics import MetricsRegistry
from repro.peeling import peeling_threshold, threshold_experiment

__all__ = ["Certification", "CheckResult", "RunRecord", "run_certification"]

ProgressHook = Callable[[Any], None]


@dataclass
class CheckResult:
    """One certified claim: what was checked, against what, and the verdict."""

    check_id: str
    table: str
    variant: str
    kind: str  # "anchor" | "equivalence" | "fluid" | "bootstrap"
    passed: bool
    measured: float | None = None
    expected: float | None = None
    tolerance: float | None = None
    anchor_id: str | None = None
    p_value: float | None = None
    p_holm: float | None = None
    effect_size: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-ready mapping for the ``checks`` array."""
        return {**asdict(self), "passed": bool(self.passed)}


@dataclass
class RunRecord:
    """Budget and provenance of one table run within a certification."""

    table: str
    variant: str
    params: dict
    wall_clock_seconds: float

    def to_dict(self) -> dict:
        """JSON-ready mapping for the ``runs`` array."""
        return asdict(self)


@dataclass
class Certification:
    """The full machine-readable verdict of one certification run."""

    tier: str
    description: str
    backend: str
    thresholds: dict
    runs: list[RunRecord] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    wall_clock_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        """Whether every check passed."""
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """The ``certification.json`` document (see ``repro.certify.verdict``)."""
        by_kind: dict[str, dict[str, int]] = {}
        for c in self.checks:
            slot = by_kind.setdefault(c.kind, {"total": 0, "failed": 0})
            slot["total"] += 1
            slot["failed"] += 0 if c.passed else 1
        return {
            "schema_version": SCHEMA_VERSION,
            "paper": PAPER_SOURCE,
            "tier": self.tier,
            "description": self.description,
            "passed": self.passed,
            "backend": self.backend,
            "thresholds": self.thresholds,
            "wall_clock_seconds": self.wall_clock_seconds,
            "runs": [r.to_dict() for r in self.runs],
            "checks": [c.to_dict() for c in self.checks],
            "summary": {
                "n_checks": len(self.checks),
                "n_failed": sum(1 for c in self.checks if not c.passed),
                "by_kind": by_kind,
                "tables": sorted({c.table for c in self.checks}),
            },
        }


# --------------------------------------------------------------------------
# Check builders
# --------------------------------------------------------------------------


def _tol(measured: float, expected: float, n_obs: int, z: float,
         quantum: float) -> float:
    """Envelope tolerance: ``z`` standard errors plus the rounding quantum.

    The standard error treats observations as Bernoulli at the larger of
    the two fractions (guarding the ``p == 0`` degenerate case), which
    is slightly conservative because bin loads within a trial are
    negatively correlated.
    """
    p = max(measured, expected, 1.0 / n_obs)
    p = min(p, 1.0 - 1.0 / n_obs)
    se = sqrt(max(p * (1.0 - p), 0.0) / n_obs)
    return z * se + quantum


def _within(
    run: TableRun,
    kind: str,
    check_id: str,
    measured: float,
    expected: float,
    tolerance: float,
    detail: str,
    anchor_id: str | None = None,
) -> CheckResult:
    """A measured value that passes within ``tolerance`` of ``expected``."""
    return CheckResult(
        check_id=check_id,
        table=run.table,
        variant=run.variant,
        kind=kind,
        passed=abs(measured - expected) <= tolerance,
        measured=measured,
        expected=expected,
        tolerance=tolerance,
        anchor_id=anchor_id,
        detail=detail,
    )


def _anchor_check(
    run: TableRun,
    anchor_id: str,
    measured: float,
    n_obs: int,
    z: float,
    *,
    scale: float = 1.0,
) -> CheckResult:
    """Check one measured fraction/percent against its registry anchor.

    ``scale`` maps fractions to the anchor's printed unit (100 for the
    percent cells of Table 4).
    """
    a = anchor(anchor_id)
    tolerance = scale * _tol(
        measured / scale, a.value / scale, n_obs, z, a.quantum / scale
    )
    return _within(
        run, "anchor", f"anchor:{run.variant}:{anchor_id}", measured,
        a.value, tolerance,
        f"|measured - paper| = {abs(measured - a.value):.3g} "
        f"(tol {tolerance:.3g}, {n_obs} observations)",
        anchor_id,
    )


def _equivalence_check(run: TableRun, dist_random, dist_double,
                       label: str = "") -> CheckResult:
    """Chi-square homogeneity between the two schemes' load laws.

    ``passed`` is provisional (raw p vs alpha is finalized by the Holm
    pass in :func:`run_certification`).
    """
    report = compare_distributions(dist_random, dist_double)
    effect = cramers_v(dist_random, dist_double)
    suffix = f"/{label}" if label else ""
    return CheckResult(
        check_id=f"equivalence:{run.table}/{run.variant}{suffix}:chi2",
        table=run.table,
        variant=run.variant,
        kind="equivalence",
        passed=True,  # finalized by the Holm pass
        p_value=report.p_value,
        effect_size=effect,
        detail=(
            f"chi2={report.chi2_statistic:.3f} dof={report.dof} "
            f"TV={report.tv_distance:.5f} "
            f"max_dev={report.max_deviation_sigmas:.2f} sigma"
        ),
    )


def _bootstrap_check(run: TableRun, loads_random, loads_double,
                     seed: int) -> CheckResult:
    """Bootstrap CIs on per-trial max loads must overlap between schemes."""
    mr, lo_r, hi_r = bootstrap_mean_ci(loads_random, seed=seed)
    md, lo_d, hi_d = bootstrap_mean_ci(loads_double, seed=seed + 1)
    overlap = (lo_r <= hi_d) and (lo_d <= hi_r)
    return CheckResult(
        check_id=f"bootstrap:{run.table}/{run.variant}:max-load",
        table=run.table,
        variant=run.variant,
        kind="bootstrap",
        passed=overlap,
        measured=md,
        expected=mr,
        detail=(
            f"random mean max {mr:.4f} CI [{lo_r:.4f}, {hi_r:.4f}]; "
            f"double mean max {md:.4f} CI [{lo_d:.4f}, {hi_d:.4f}]"
        ),
    )


def _fluid_check(
    run: TableRun,
    tier: CertificationTier,
    anchor_id: str,
    measured: float,
    detail: str,
    *,
    cell: str = "",
    floor: float = 0.0,
) -> CheckResult:
    """A closed-form or solver value against its published cell.

    The tolerance is ``fluid_rel_tol`` relative to the cell (at least
    ``floor``) plus its rounding quantum.  The check id names ``cell``
    within the run when given, else the anchor.
    """
    a = anchor(anchor_id)
    return _within(
        run, "fluid",
        f"fluid:{run.table}/{run.variant}:{cell}" if cell
        else f"fluid:{run.variant}:{anchor_id}",
        measured, a.value, tier.fluid_rel_tol * max(a.value, floor) + a.quantum,
        detail, anchor_id,
    )


def _load_anchors(prefix: str) -> list[tuple[str, int]]:
    """Registry anchors ``<prefix>/load<i>`` with their load ``i``."""
    return [
        (a.anchor_id, int(a.anchor_id.rsplit("load", 1)[1]))
        for a in REGISTRY.values()
        if a.anchor_id.startswith(prefix + "/load")
    ]


# --------------------------------------------------------------------------
# Per-table certifiers
# --------------------------------------------------------------------------


def _certify_load_fraction_table(run, tier, metrics, progress):
    """Tables 1, 3 and 6: per-load fraction anchors + equivalence."""
    table = _TABLES[run.table](
        run.spec, **run.extras, metrics=metrics, progress=progress
    )
    res_r, res_d = table.results["random"], table.results["double"]
    spec = res_r.spec
    n_obs = spec.trials * spec.n
    size = f"/n{spec.log2_n}" if run.table == "table3" else ""
    prefix = f"{run.table}{size}/d{spec.d}"
    checks = [
        _anchor_check(
            run, anchor_id, res.distribution.fraction_at(load),
            n_obs, tier.anchor_z,
        )
        for role, res in table.results.items()
        for anchor_id, load in _load_anchors(f"{prefix}/{role}")
    ]
    checks.append(_equivalence_check(run, res_r.distribution, res_d.distribution))
    checks.append(_bootstrap_check(
        run,
        res_r.distribution.max_load_per_trial,
        res_d.distribution.max_load_per_trial,
        seed=spec.seed or 0,
    ))
    if table.fluid is not None:  # Table 6's heavy-load fluid column
        checks.extend(
            _fluid_check(
                run, tier, anchor_id, table.fluid.fraction_at(load),
                "heavy-load fluid limit vs published simulated cell",
                cell=f"load{load}", floor=1e-3,
            )
            for anchor_id, load in _load_anchors(f"table6/d{spec.d}/random")
        )
    return checks, spec


def _certify_table2(run, tier, metrics, progress):
    """Table 2: fluid tails vs paper, simulated tails vs paper, equivalence."""
    table = tables.table2_fluid_vs_simulation(
        run.spec, metrics=metrics, progress=progress
    )
    res_r, res_d = table.results["random"], table.results["double"]
    spec = res_r.spec
    n_obs = spec.trials * spec.n
    checks = [
        _fluid_check(
            run, tier, f"table2/fluid/tail{k}", table.fluid.tail_at(k),
            "ODE solver tail vs published fluid column", cell=f"tail{k}",
        )
        for k in (1, 2, 3)
    ]
    for role, res in table.results.items():
        for k in (1, 2, 3):
            checks.append(_anchor_check(
                run, f"table2/{role}/tail{k}", res.distribution.tail_at(k),
                n_obs, tier.anchor_z,
            ))
    checks.append(_equivalence_check(run, res_r.distribution, res_d.distribution))
    return checks, spec


def _certify_table4(run, tier, metrics, progress):
    """Table 4: max-load percent anchors + per-size equivalence/bootstraps."""
    spec = run.spec
    table = tables.table4_max_load(
        spec, **run.extras, metrics=metrics, progress=progress
    )
    checks = []
    for log2_n, pair in table.results.items():
        res_r, res_d = pair["random"], pair["double"]
        for role, res in pair.items():
            anchor_id = f"table4/d{spec.d}/{role}/n{log2_n}"
            if anchor_id not in REGISTRY:
                continue
            pct = 100.0 * res.distribution.fraction_trials_max_load(3)
            checks.append(_anchor_check(
                run, anchor_id, pct, spec.trials, tier.anchor_z, scale=100.0,
            ))
        cmp = compare_max_loads(res_r.distribution, res_d.distribution)
        checks.append(CheckResult(
            check_id=f"equivalence:{run.table}/{run.variant}/n{log2_n}:max-load",
            table=run.table,
            variant=run.variant,
            kind="equivalence",
            passed=True,  # finalized by the Holm pass
            p_value=cmp.p_value,
            detail=f"max-load contingency over values {cmp.table_values}",
        ))
        checks.append(_bootstrap_check(
            TableRun(run.table, f"{run.variant}-n{log2_n}", res_r.spec),
            res_r.distribution.max_load_per_trial,
            res_d.distribution.max_load_per_trial,
            seed=(res_r.spec.seed or 0),
        ))
    return checks, spec


def _certify_table5(run, tier, metrics, progress):
    """Table 5: mean per-load occupancy fractions + equivalence.

    Published min/max/std cells are n-specific order statistics; the
    scale-free observable certified at every tier is ``avg / n`` (which
    at the ``full`` tier's n = 2^18 is the paper's own geometry).
    """
    spec = run.spec
    table = tables.table5_level_stats(spec, metrics=metrics, progress=progress)
    paper_n = 2 ** 18
    n_obs = spec.trials * spec.n
    checks = []
    for role, res in table.results.items():
        for load in range(4):
            anchor_id = f"table5/{role}/load{load}/avg"
            if anchor_id not in REGISTRY:
                continue
            a = anchor(anchor_id)
            measured = res.aggregator.level_stats(load).mean / spec.n
            expected = a.value / paper_n
            checks.append(_within(
                run, "anchor", f"anchor:{run.variant}:{anchor_id}",
                measured, expected,
                _tol(measured, expected, n_obs, tier.anchor_z,
                     a.quantum / paper_n),
                f"avg/n occupancy at load {load} "
                f"(paper avg {a.value} at n=2^18)",
                anchor_id,
            ))
    res_r, res_d = table.results["random"], table.results["double"]
    checks.append(_equivalence_check(run, res_r.distribution, res_d.distribution))
    return checks, spec


def _certify_table7(run, tier, metrics, progress):
    """Table 7: d-left fraction anchors + fluid + equivalence."""
    spec = run.spec
    table = tables.table7_dleft(spec)
    log2_n = spec.n.bit_length() - 1 if spec.n & (spec.n - 1) == 0 else None
    n_obs = spec.trials * spec.n
    checks = [
        _anchor_check(
            run, anchor_id, dist.fraction_at(load), n_obs, tier.anchor_z,
        )
        for role, dist in table.results.items()
        for anchor_id, load in _load_anchors(f"table7/n{log2_n}/{role}")
    ]
    checks.append(_fluid_check(
        run, tier, "table7/n18/random/load1", table.fluid.fraction_at(1),
        "d-left fluid limit vs published cell at n=2^18", cell="load1",
    ))
    checks.append(_equivalence_check(
        run, table.results["random"], table.results["double"]
    ))
    return checks, spec


def _certify_table8(run, tier, metrics, progress):
    """Table 8: fluid-equilibrium anchors (all cells) + simulated cells."""
    spec = run.spec
    table = tables.table8_queueing(spec, **run.extras)
    # Closed-form equilibrium vs every published cell: cheap and tight.
    checks = [
        _fluid_check(
            run, tier, a.anchor_id, equilibrium_mean_sojourn_time(*a.key[:2]),
            "closed-form fluid equilibrium vs published simulated cell",
        )
        for a in REGISTRY.values()
        if a.table == "table8"
    ]
    # Simulated cells for the tier's (lambda, d) budget.
    for lam, d, sojourn_r, sojourn_d, ref in table.rows:
        for role, measured in (("random", sojourn_r), ("double", sojourn_d)):
            a = anchor(f"table8/lam{lam}/d{d}/{role}")
            checks.append(_within(
                run, "anchor", f"anchor:{run.variant}:{a.anchor_id}",
                measured, a.value, tier.queueing_rel_tol * a.value,
                f"simulated mean sojourn time, lambda={lam} d={d} "
                f"(rel tol {tier.queueing_rel_tol})",
                a.anchor_id,
            ))
        checks.append(_within(
            run, "equivalence",
            f"equivalence:{run.table}/{run.variant}/lam{lam}-d{d}:sojourn",
            abs(sojourn_r - sojourn_d), 0.0, tier.queueing_rel_tol * ref,
            "random-vs-double sojourn gap (single runs, no "
            "distributional test)",
        ))
    return checks, spec


def _certify_peeling(run, tier, metrics, progress):
    """Derived peeling-threshold cells: solver precision + density sweep.

    Three check families (see ``docs/peeling.md``):

    - **fluid** — the density-evolution solver against every derived
      threshold anchor (d = 3, 4, 5), pure solver precision;
    - **anchor** — the fully-random scheme's empirical 50%-success
      crossing against the spec's ``d`` anchor, inside a finite-size
      window (``extras["threshold_tol"]``).  The double curve is
      deliberately excluded: duplicate edges suppress its success
      probability by a constant (the paper's footnote-1 caveat), so its
      crossing does not estimate ``c*_d``;
    - **equivalence** — mean |core-fraction gap| between the schemes
      across the sweep, the observable where the fluid-limit
      equivalence genuinely carries over.  No distributional p-value
      (the success laws legitimately differ), so the check carries
      ``p_value=None`` and stays outside the Holm family, like the
      Table 8 sojourn-gap check.
    """
    spec = run.spec
    densities = run.extras.get(
        "densities", (0.70, 0.74, 0.78, 0.82, 0.86, 0.90)
    )
    threshold_tol = run.extras.get("threshold_tol", 0.04)
    core_gap_tol = run.extras.get("core_gap_tol", 0.02)
    checks = [
        _fluid_check(
            run, tier, f"derived/peeling-threshold/d{d}", peeling_threshold(d),
            "density-evolution solver vs derived threshold cell",
        )
        for d in (3, 4, 5)
    ]
    exp = threshold_experiment(
        spec.n, spec.d, list(densities), spec.trials,
        seed=spec.seed, backend=spec.backend,
    )
    a = anchor(f"derived/peeling-threshold/d{spec.d}")
    checks.append(_within(
        run, "anchor", f"anchor:{run.variant}:{a.anchor_id}:empirical",
        exp.empirical_threshold("random"), a.value, threshold_tol,
        f"fully-random 50% success crossing at n={spec.n} "
        f"(finite-size window {threshold_tol}; double excluded — "
        "duplicate edges suppress its success probability)",
        a.anchor_id,
    ))
    checks.append(_within(
        run, "equivalence",
        f"equivalence:{run.table}/{run.variant}:core-fraction",
        float(np.abs(
            exp.core_fraction_random - exp.core_fraction_double
        ).mean()),
        0.0, core_gap_tol,
        "mean |core-fraction gap| over the density sweep (the "
        "scheme-equivalent observable; success probability differs "
        "by the duplicate-edge caveat, so no distributional test)",
    ))
    return checks, spec


def _certify_schemes(run, tier, metrics, progress):
    """Hash-family zoo: keyed schemes vs the fully-random baseline.

    The empirical equivalence map behind ``docs/hash-families.md``: each
    scheme named in ``extras["schemes"]`` runs through the fused
    placement kernel (via its :class:`~repro.hashing.keyed.KeyedStreamScheme`
    wrapper) on the run's geometry and is compared to one shared
    fully-random baseline with

    - a chi-square homogeneity test on the load law, joining the
      tier-wide Holm family (kind ``equivalence``), and
    - overlapping bootstrap CIs on per-trial max loads (kind
      ``bootstrap``).

    The runs are :func:`~repro.experiments.tables.scheme_sweep`'s; each
    challenger's bootstrap is seeded with the seed it ran at.
    """
    spec = run.spec
    schemes = tuple(run.extras.get("schemes", ("tabulation", "pairwise")))
    sweep = tables.scheme_sweep(
        spec, schemes, metrics=metrics, progress=progress
    )
    base = sweep.results["baseline"]
    checks = []
    for name in schemes:
        res = sweep.results[name]
        checks.append(_equivalence_check(
            run, base.distribution, res.distribution, label=name,
        ))
        checks.append(_bootstrap_check(
            TableRun(run.table, f"{run.variant}-{name}", spec),
            base.distribution.max_load_per_trial,
            res.distribution.max_load_per_trial,
            seed=(res.spec.seed or 0),
        ))
    return checks, spec


#: The table functions behind Tables 1, 3 and 6.
_TABLES = {
    "table1": tables.table1_load_fractions,
    "table3": tables.table3_larger_n,
    "table6": tables.table6_heavy_load,
}

_CERTIFIERS = {
    "table1": _certify_load_fraction_table,
    "table2": _certify_table2,
    "table3": _certify_load_fraction_table,
    "table4": _certify_table4,
    "table5": _certify_table5,
    "table6": _certify_load_fraction_table,
    "table7": _certify_table7,
    "table8": _certify_table8,
    "peeling": _certify_peeling,
    "schemes": _certify_schemes,
}


def run_certification(
    tier: str | CertificationTier = "smoke",
    *,
    backend: str | None = None,
    workers: int | None = None,
    metrics: MetricsRegistry | None = None,
    progress: ProgressHook | None = None,
) -> Certification:
    """Run one certification tier and return the machine-readable verdict.

    Parameters
    ----------
    tier:
        Tier name (``"smoke"``/``"standard"``/``"full"``) or a custom
        :class:`~repro.certify.tiers.CertificationTier` (tests use tiny
        ones).
    backend, workers:
        Optional overrides applied to every run's spec (``workers`` only
        schedules chunks, so the verdict does not depend on it).
    metrics, progress:
        Forwarded to the table functions that run through the engine.
    """
    if isinstance(tier, str):
        tier = TIERS[tier] if tier in TIERS else _unknown_tier(tier)
    resolved_backend = resolve_backend(backend).name
    cert = Certification(
        tier=tier.name,
        description=tier.description,
        backend=resolved_backend,
        thresholds={
            "anchor_z": tier.anchor_z,
            "alpha": tier.alpha,
            "queueing_rel_tol": tier.queueing_rel_tol,
            "fluid_rel_tol": tier.fluid_rel_tol,
        },
    )
    t_total = time.perf_counter()
    overrides = {
        k: v
        for k, v in dict(backend=backend, workers=workers).items()
        if v is not None
    }
    for run in tier.runs:
        if overrides:
            run = TableRun(
                run.table, run.variant, run.spec.replace(**overrides),
                run.extras,
            )
        t0 = time.perf_counter()
        checks, used_spec = _CERTIFIERS[run.table](run, tier, metrics, progress)
        cert.checks.extend(checks)
        cert.runs.append(RunRecord(
            table=run.table,
            variant=run.variant,
            params={
                "n": used_spec.n,
                "d": used_spec.d,
                "n_balls": used_spec.balls,
                "trials": used_spec.trials,
                "seed": used_spec.seed,
                "backend": resolved_backend,
                "workers": used_spec.workers,
                **({"sim_time": used_spec.sim_time}
                   if run.table == "table8" else {}),
                **dict(run.extras),
            },
            wall_clock_seconds=round(time.perf_counter() - t0, 3),
        ))
    # Holm pass: finalize the equivalence verdicts family-wise.
    family = [c for c in cert.checks
              if c.kind == "equivalence" and c.p_value is not None]
    if family:
        holm = holm_correction([c.p_value for c in family], alpha=tier.alpha)
        for c, adjusted, rejected in zip(family, holm.adjusted, holm.reject):
            c.p_holm = adjusted
            c.passed = not rejected
    cert.wall_clock_seconds = round(time.perf_counter() - t_total, 3)
    return cert


def _unknown_tier(name: str) -> CertificationTier:
    """Raise the tiers module's helpful KeyError for an unknown name."""
    from repro.certify.tiers import tier as _tier

    return _tier(name)
