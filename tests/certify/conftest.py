"""Shared fixtures: tiny certification runs reused across test files."""

from __future__ import annotations

import pytest

from repro.certify.runner import Certification, run_certification
from repro.certify.tiers import CertificationTier, TableRun
from repro.experiments.config import ExperimentSpec

#: A deliberately tiny tier: Tables 1 and 2 at toy scale, seconds to run,
#: exercising all four check kinds (anchor, equivalence, bootstrap, fluid).
MICRO_TIER = CertificationTier(
    name="micro",
    description="test-only tier: tables 1-2 at toy scale",
    runs=(
        TableRun("table1", "d3", ExperimentSpec(n=1024, d=3, trials=10, seed=101)),
        TableRun("table2", "d3", ExperimentSpec(n=1024, d=3, trials=10, seed=102)),
    ),
    anchor_z=8.0,
    alpha=1e-3,
    queueing_rel_tol=0.12,
)

#: Every certifier (Tables 1-8, peeling, schemes) once, at toy scale.
#: Geometries are chosen so each table still meets some of its anchors
#: (Table 3 at n = 2^16, Table 7 at n = 2^14, Table 4 at n = 2^10).
#: Table 8 runs n = 256 queues for 200 s with 40 s of burn-in: at seeds
#: 1000-1199 no run failed a check (0 of 200, 135 ms per cell), where the
#: former n = 64, 40 s, 8 s burn-in failed 129 of 200.
EVERY_TIER = CertificationTier(
    name="every",
    description="test-only tier: every certifier at toy scale",
    runs=(
        TableRun("table1", "d3", ExperimentSpec(n=1024, d=3, trials=4, seed=101)),
        TableRun("table2", "d3", ExperimentSpec(n=1024, d=3, trials=4, seed=102)),
        TableRun("table3", "n16-d3", ExperimentSpec(n=2**16, d=3, trials=2, seed=103)),
        TableRun(
            "table4", "d3", ExperimentSpec(d=3, trials=8, seed=104),
            extras={"log2_n_values": (8, 10)},
        ),
        TableRun("table5", "d4", ExperimentSpec(n=1024, d=4, trials=4, seed=105)),
        TableRun(
            "table6", "d3", ExperimentSpec(n=256, d=3, trials=4, seed=106),
            extras={"balls_per_bin": 16},
        ),
        TableRun("table7", "d4", ExperimentSpec(n=2**14, d=4, trials=2, seed=107)),
        TableRun(
            "table8", "lam0.9",
            ExperimentSpec(n=256, sim_time=200.0, burn_in=40.0, seed=108),
            extras={"lambdas": (0.9,), "d_values": (3,)},
        ),
        TableRun(
            "peeling", "d3", ExperimentSpec(n=2048, d=3, trials=4, seed=109),
            extras={"threshold_tol": 0.04, "core_gap_tol": 0.02},
        ),
        TableRun(
            "schemes", "n10-d3", ExperimentSpec(n=1024, d=3, trials=4, seed=141),
            extras={"schemes": ("tabulation", "pairwise")},
        ),
    ),
    anchor_z=8.0,
    alpha=1e-3,
    queueing_rel_tol=0.12,
)


@pytest.fixture(scope="session")
def micro_cert() -> Certification:
    """Run the micro tier once per session on the always-available backend."""
    return run_certification(MICRO_TIER, workers=1)


@pytest.fixture(scope="session")
def every_cert() -> Certification:
    """Run the every-certifier tier once per session."""
    return run_certification(EVERY_TIER, workers=1)
