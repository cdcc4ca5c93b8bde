"""Certification tiers: budgets and thresholds for the anchor runs.

A tier is a named bundle of (a) the table runs to execute — each an
:class:`~repro.experiments.config.ExperimentSpec` plus table-shape
extras — and (b) the statistical thresholds the checks are judged at.
Three tiers ship:

``smoke``
    Seconds-scale, wired into CI.  Covers Tables 1, 2, 3 and 8 plus the
    derived peeling-threshold cells and the hash-family-zoo scheme
    sweep (``schemes`` runs; see ``docs/hash-families.md``) at reduced
    trial counts with generous (but documented) envelopes.
``standard``
    Every table, tighter envelopes, under a minute.  EXPERIMENTS.md is
    this tier's report (``certify --tier standard
    --emit-experiments-md``), so every run the document publishes is a
    run of this tier.
``full``
    Paper scale (10^4 trials, n up to 2^18, 10^4-second queueing
    horizons; scheme sweeps up to n = 2^24).  Hours; the envelopes
    approach the paper's printed precision.

Threshold semantics (see ``docs/certification.md`` for derivations):

- ``anchor_z`` — an anchor-agreement check passes when the measured
  value sits within ``anchor_z`` standard errors (at the tier's trial
  count) plus the paper's rounding quantum of the published value;
- ``alpha`` — family-wise significance for the equivalence tests: the
  per-table chi-square p-values are Holm-corrected across the whole
  run, and any corrected rejection fails certification;
- ``queueing_rel_tol`` — relative tolerance for simulated sojourn
  times against the published Table 8 cells (single-run values whose
  own variance the paper does not report);
- ``fluid_rel_tol`` — relative tolerance for closed-form fluid
  quantities against published cells (solver precision, not sampling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.experiments.config import ExperimentSpec
from repro.hashing.registry import ZOO_FAMILIES

__all__ = ["TIERS", "CertificationTier", "TableRun", "tier"]


@dataclass(frozen=True)
class TableRun:
    """One table execution within a tier.

    Attributes
    ----------
    table:
        Table id (``"table1"`` … ``"table8"``).
    variant:
        Short label distinguishing sub-runs of one table (e.g. ``"d3"``).
    spec:
        The run's :class:`~repro.experiments.config.ExperimentSpec`.
    extras:
        Table-shape arguments outside the spec (e.g. ``log2_n_values``
        for Table 4, ``lambdas``/``d_values`` for Table 8).
    """

    table: str
    variant: str
    spec: ExperimentSpec
    extras: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CertificationTier:
    """A named certification budget plus its statistical thresholds."""

    name: str
    description: str
    runs: tuple[TableRun, ...]
    anchor_z: float
    alpha: float
    queueing_rel_tol: float
    fluid_rel_tol: float = 1.5e-3

    @property
    def tables(self) -> tuple[str, ...]:
        """Distinct tables covered by this tier, in run order."""
        seen: list[str] = []
        for run in self.runs:
            if run.table not in seen:
                seen.append(run.table)
        return tuple(seen)


def _spec(**kw) -> ExperimentSpec:
    """Shorthand spec constructor for the tier tables below."""
    return ExperimentSpec(**kw)


_SMOKE = CertificationTier(
    name="smoke",
    description=(
        "CI tier: Tables 1/2/3/8 plus the derived peeling-threshold "
        "and hash-family-zoo cells at reduced trials, seed-pinned; "
        "about 1.5 s on one core, 3.5 s from the CLI"
    ),
    runs=(
        TableRun("table1", "d3", _spec(n=2**14, d=3, trials=25, seed=101)),
        TableRun("table2", "d3", _spec(n=2**14, d=3, trials=25, seed=102)),
        TableRun("table3", "n16-d3", _spec(n=2**16, d=3, trials=8, seed=103)),
        TableRun(
            "table8", "lam0.9",
            _spec(n=512, sim_time=400.0, burn_in=80.0, seed=108),
            extras={"lambdas": (0.9,), "d_values": (3, 4)},
        ),
        TableRun(
            "peeling", "d3", _spec(n=2**11, d=3, trials=12, seed=109),
            extras={"threshold_tol": 0.04, "core_gap_tol": 0.02},
        ),
        TableRun(
            "schemes", "n14-d3", _spec(n=2**14, d=3, trials=20, seed=141),
            extras={"schemes": ("tabulation", "pairwise")},
        ),
    ),
    anchor_z=6.0,
    alpha=1e-3,
    queueing_rel_tol=0.12,
)

_STANDARD = CertificationTier(
    name="standard",
    description=(
        "every table at the scale EXPERIMENTS.md publishes, seed-pinned; "
        "about 50 s on one core"
    ),
    runs=(
        TableRun("table1", "d3", _spec(n=2**14, d=3, trials=400, seed=101)),
        TableRun("table1", "d4", _spec(n=2**14, d=4, trials=400, seed=111)),
        TableRun("table2", "d3", _spec(n=2**14, d=3, trials=400, seed=102)),
        TableRun("table3", "n16-d3", _spec(n=2**16, d=3, trials=60, seed=103)),
        TableRun("table3", "n16-d4", _spec(n=2**16, d=4, trials=60, seed=113)),
        TableRun(
            "table4", "d3", _spec(d=3, trials=400, seed=104),
            extras={"log2_n_values": (10, 11, 12, 13, 14)},
        ),
        TableRun(
            "table4", "d4", _spec(d=4, trials=400, seed=114),
            extras={"log2_n_values": (10, 12, 14)},
        ),
        TableRun(
            "table5", "d4", _spec(n=2**16, d=4, trials=60, seed=105),
        ),
        TableRun(
            "table6", "d3", _spec(n=2**12, d=3, trials=40, seed=106),
            extras={"balls_per_bin": 16},
        ),
        TableRun(
            "table6", "d4", _spec(n=2**12, d=4, trials=40, seed=116),
            extras={"balls_per_bin": 16},
        ),
        TableRun("table7", "d4", _spec(n=2**14, d=4, trials=400, seed=107)),
        TableRun(
            "table8", "all",
            _spec(n=2**10, sim_time=2000.0, burn_in=200.0, seed=108),
            extras={"lambdas": (0.9, 0.99), "d_values": (3, 4)},
        ),
        TableRun(
            "peeling", "d3", _spec(n=2**13, d=3, trials=24, seed=109),
            extras={"threshold_tol": 0.035, "core_gap_tol": 0.02},
        ),
        TableRun(
            "schemes", "n16-d3", _spec(n=2**16, d=3, trials=50, seed=141),
            extras={"schemes": ZOO_FAMILIES},
        ),
    ),
    anchor_z=5.0,
    alpha=1e-2,
    queueing_rel_tol=0.06,
)

_FULL = CertificationTier(
    name="full",
    description=(
        "paper scale: 10^4 trials, n up to 2^18, 10^4 s queueing horizon; "
        "hours (never run end to end; its n = 2^24 zoo cell alone takes "
        "about 2.5 min)"
    ),
    runs=(
        TableRun("table1", "d3", _spec(n=2**14, d=3, trials=10000, seed=101)),
        TableRun("table1", "d4", _spec(n=2**14, d=4, trials=10000, seed=111)),
        TableRun("table2", "d3", _spec(n=2**14, d=3, trials=10000, seed=102)),
        TableRun("table3", "n16-d3", _spec(n=2**16, d=3, trials=10000, seed=103)),
        TableRun("table3", "n16-d4", _spec(n=2**16, d=4, trials=10000, seed=113)),
        TableRun("table3", "n18-d3", _spec(n=2**18, d=3, trials=10000, seed=123)),
        TableRun("table3", "n18-d4", _spec(n=2**18, d=4, trials=10000, seed=133)),
        TableRun(
            "table4", "d3", _spec(d=3, trials=10000, seed=104),
            extras={"log2_n_values": (10, 11, 12, 13, 14, 15)},
        ),
        TableRun(
            "table4", "d4", _spec(d=4, trials=10000, seed=114),
            extras={"log2_n_values": (10, 12, 14, 16, 18, 20)},
        ),
        TableRun(
            "table5", "d4", _spec(n=2**18, d=4, trials=10000, seed=105),
        ),
        TableRun(
            "table6", "d3", _spec(n=2**14, d=3, trials=10000, seed=106),
            extras={"balls_per_bin": 16},
        ),
        TableRun(
            "table6", "d4", _spec(n=2**14, d=4, trials=10000, seed=116),
            extras={"balls_per_bin": 16},
        ),
        TableRun("table7", "d4", _spec(n=2**14, d=4, trials=10000, seed=107)),
        TableRun(
            "table8", "all",
            _spec(n=2**14, sim_time=10000.0, burn_in=1000.0, seed=108),
            extras={"lambdas": (0.9, 0.99), "d_values": (3, 4)},
        ),
        TableRun(
            "peeling", "d3", _spec(n=2**14, d=3, trials=100, seed=109),
            extras={
                "densities": (
                    0.70, 0.74, 0.78, 0.80, 0.82, 0.84, 0.86, 0.90,
                ),
                "threshold_tol": 0.03,
                "core_gap_tol": 0.02,
            },
        ),
        TableRun(
            "schemes", "n20-d3", _spec(n=2**20, d=3, trials=100, seed=141),
            extras={"schemes": (
                "multiply-shift", "tabulation", "tabulation-double",
                "pairwise", "pairwise-double",
            )},
        ),
        TableRun(
            "schemes", "n24-d3", _spec(n=2**24, d=3, trials=10, seed=151),
            extras={"schemes": ("tabulation", "pairwise")},
        ),
    ),
    anchor_z=4.0,
    alpha=1e-2,
    queueing_rel_tol=0.02,
)

#: The shipped tiers, by name.
TIERS: dict[str, CertificationTier] = {
    t.name: t for t in (_SMOKE, _STANDARD, _FULL)
}


def tier(name: str) -> CertificationTier:
    """Look up a shipped tier by name, with a helpful error."""
    try:
        return TIERS[name]
    except KeyError:
        raise KeyError(
            f"unknown certification tier {name!r}; known: {sorted(TIERS)}"
        ) from None
