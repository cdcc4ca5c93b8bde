"""Tests for the certification runner on a tiny custom tier."""

from __future__ import annotations

import dataclasses

import pytest

from repro.certify.tiers import CertificationTier, TableRun
from repro.certify.verdict import validate_certification
from repro.experiments.config import ExperimentSpec

from .conftest import MICRO_TIER


class TestMicroCertification:
    def test_passes_at_toy_scale(self, micro_cert):
        failed = [c.check_id for c in micro_cert.checks if not c.passed]
        assert micro_cert.passed, f"failing checks: {failed}"

    def test_document_is_schema_valid(self, micro_cert):
        assert validate_certification(micro_cert.to_dict()) == []

    def test_all_four_check_kinds_present(self, micro_cert):
        kinds = {c.kind for c in micro_cert.checks}
        assert kinds == {"anchor", "equivalence", "fluid", "bootstrap"}

    def test_check_ids_unique(self, micro_cert):
        ids = [c.check_id for c in micro_cert.checks]
        assert len(ids) == len(set(ids))

    def test_backend_and_tier_recorded(self, micro_cert):
        doc = micro_cert.to_dict()
        assert doc["tier"] == "micro"
        assert doc["backend"] == "numpy"
        assert doc["thresholds"]["anchor_z"] == MICRO_TIER.anchor_z
        assert doc["thresholds"]["alpha"] == MICRO_TIER.alpha

    def test_runs_record_parameters(self, micro_cert):
        doc = micro_cert.to_dict()
        assert [r["table"] for r in doc["runs"]] == ["table1", "table2"]
        for run in doc["runs"]:
            assert run["params"]["backend"] == "numpy"
            assert run["params"]["workers"] == 1
            assert run["params"]["trials"] == 10
            assert run["wall_clock_seconds"] >= 0.0

    def test_holm_correction_wired(self, micro_cert):
        """Every equivalence check with a raw p-value carries a Holm-adjusted
        one that is no smaller, and the family decision used it."""
        equiv = [
            c for c in micro_cert.checks
            if c.kind == "equivalence" and c.p_value is not None
        ]
        assert equiv
        for check in equiv:
            assert check.p_holm is not None
            assert check.p_holm >= check.p_value - 1e-15
            assert check.passed == (check.p_holm > MICRO_TIER.alpha)

    def test_anchor_checks_reference_registry_ids(self, micro_cert):
        from repro.certify.anchors import anchor

        anchored = [c for c in micro_cert.checks if c.anchor_id]
        assert anchored
        for check in anchored:
            a = anchor(check.anchor_id)  # resolves, i.e. no invented ids
            if check.kind == "anchor":
                assert check.expected == pytest.approx(a.value, rel=1e-9)

    def test_table1_anchors_measure_the_table_rows(self, micro_cert):
        """Each Table 1 anchor check reports the cell that
        ``table1_load_fractions`` prints for the same spec."""
        from repro.experiments import table1_load_fractions

        spec = next(r.spec for r in MICRO_TIER.runs if r.table == "table1")
        rows = table1_load_fractions(spec).rows
        column = {"random": 1, "double": 2}
        anchored = [
            c for c in micro_cert.checks
            if c.table == "table1" and c.kind == "anchor"
        ]
        assert anchored
        for check in anchored:
            _, _, role, load = check.anchor_id.split("/")
            assert check.measured == rows[int(load[len("load"):])][column[role]]

    def test_deterministic_rerun(self, micro_cert):
        """Same tier, same backend: identical verdict apart from timing."""
        from repro.certify.runner import run_certification

        again = run_certification(MICRO_TIER, workers=1)
        a, b = micro_cert.to_dict(), again.to_dict()
        for doc in (a, b):
            doc["wall_clock_seconds"] = 0.0
            for run in doc["runs"]:
                run["wall_clock_seconds"] = 0.0
        assert a == b


class TestRunRecords:
    def test_tables_4_and_8_record_what_ran(self, every_cert):
        """Table 4 runs one n per size and Table 8 one run per (lambda,
        d) cell after its burn-in: neither records a spec default in
        their place."""
        params = {r.table: r.params for r in every_cert.runs}
        table4, table8 = params["table4"], params["table8"]
        assert table4["log2_n_values"] == (8, 10)
        assert not {"n", "n_balls"} & set(table4)
        assert table8["burn_in"] == 40.0 and table8["sim_time"] == 200.0
        assert table8["d_values"] == (3,) and table8["lambdas"] == (0.9,)
        assert not {"d", "trials", "n_balls"} & set(table8)
        assert params["table1"]["n_balls"] == params["table1"]["n"] == 1024


class TestRunnerErrors:
    def test_unknown_tier_name(self):
        from repro.certify.runner import run_certification

        with pytest.raises(KeyError, match="unknown certification tier"):
            run_certification("ludicrous")


SCHEMES_TIER = CertificationTier(
    name="micro-schemes",
    description="test-only tier: one hash-family-zoo cell at toy scale",
    runs=(
        TableRun(
            "schemes", "n10-d3",
            ExperimentSpec(n=1024, d=3, trials=12, seed=141),
            extras={"schemes": ("tabulation", "pairwise")},
        ),
    ),
    anchor_z=8.0,
    alpha=1e-3,
    queueing_rel_tol=0.12,
)


class TestSchemesCertifier:
    """The hash-family-zoo cells: per-scheme equivalence vs fully random."""

    @pytest.fixture(scope="class")
    def schemes_cert(self):
        from repro.certify.runner import run_certification

        return run_certification(SCHEMES_TIER, workers=1)

    def test_passes_at_toy_scale(self, schemes_cert):
        failed = [c.check_id for c in schemes_cert.checks if not c.passed]
        assert schemes_cert.passed, f"failing checks: {failed}"

    def test_one_equivalence_and_bootstrap_per_scheme(self, schemes_cert):
        ids = {c.check_id for c in schemes_cert.checks}
        assert ids == {
            "equivalence:schemes/n10-d3/tabulation:chi2",
            "equivalence:schemes/n10-d3/pairwise:chi2",
            "bootstrap:schemes/n10-d3-tabulation:max-load",
            "bootstrap:schemes/n10-d3-pairwise:max-load",
        }

    def test_equivalence_checks_join_holm_family(self, schemes_cert):
        eq = [c for c in schemes_cert.checks if c.kind == "equivalence"]
        assert eq
        for check in eq:
            assert check.p_value is not None
            assert check.p_holm is not None

    def test_document_is_schema_valid(self, schemes_cert):
        assert validate_certification(schemes_cert.to_dict()) == []


class TestTable1NegativeControl:
    """Table 1's checks can fail: double hashing collapsed to one bin per
    ball (stride g ≡ 0) is the one-choice process.  At the micro tier's
    Table 1 geometry it misses the double load 0, 1 and 3 anchors, the
    chi-square equivalence and the max-load bootstrap.  The load 2 anchor
    still passes: one choice puts e^−1/2 ≈ 0.184 of the bins there,
    close to d = 3's 0.176."""

    @pytest.fixture(scope="class")
    def collapsed_cert(self):
        from repro.certify.runner import run_certification
        from repro.experiments import tables
        from tests.kernels.test_supermarket_backends import (
            CollapsedDoubleHashing,
        )

        tier = dataclasses.replace(
            MICRO_TIER, name="micro-table1", runs=MICRO_TIER.runs[:1]
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables, "DoubleHashingChoices", CollapsedDoubleHashing)
            return run_certification(tier, workers=1)

    def test_fails_exactly_the_double_checks(self, collapsed_cert):
        verdicts = {c.check_id: c.passed for c in collapsed_cert.checks}
        assert verdicts == {
            "anchor:d3:table1/d3/random/load0": True,
            "anchor:d3:table1/d3/random/load1": True,
            "anchor:d3:table1/d3/random/load2": True,
            "anchor:d3:table1/d3/random/load3": True,
            "anchor:d3:table1/d3/double/load0": False,
            "anchor:d3:table1/d3/double/load1": False,
            "anchor:d3:table1/d3/double/load2": True,
            "anchor:d3:table1/d3/double/load3": False,
            "equivalence:table1/d3:chi2": False,
            "bootstrap:table1/d3:max-load": False,
        }
        assert not collapsed_cert.passed


TABLE8_TIER = CertificationTier(
    name="micro-table8",
    description="test-only tier: one Table 8 cell at toy scale",
    runs=(
        TableRun(
            "table8", "lam0.9",
            ExperimentSpec(n=256, sim_time=100.0, burn_in=20.0, seed=108),
            extras={"lambdas": (0.9,), "d_values": (3,)},
        ),
    ),
    anchor_z=8.0,
    alpha=1e-3,
    queueing_rel_tol=0.12,
)


class TestTable8NegativeControl:
    """Table 8's checks can fail: double hashing collapsed to one queue per
    arrival (stride g ≡ 0) is M/M/1, mean sojourn 1/(1 − λ) = 10 at
    λ = 0.9, far from the d = 3 cell's 2.03."""

    @pytest.fixture(scope="class")
    def collapsed_cert(self):
        from repro.certify.runner import run_certification
        from repro.experiments import tables
        from tests.kernels.test_supermarket_backends import (
            CollapsedDoubleHashing,
        )

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables, "DoubleHashingChoices", CollapsedDoubleHashing)
            return run_certification(TABLE8_TIER, workers=1)

    def test_sojourn_checks_fail(self, collapsed_cert):
        by_id = {c.check_id: c for c in collapsed_cert.checks}
        anchor = by_id["anchor:lam0.9:table8/lam0.9/d3/double"]
        gap = by_id["equivalence:table8/lam0.9/lam0.9-d3:sojourn"]
        assert not anchor.passed
        assert anchor.measured > anchor.expected + 2 * anchor.tolerance
        assert not gap.passed
        assert not collapsed_cert.passed

    def test_unpatched_run_passes(self):
        from repro.certify.runner import run_certification

        cert = run_certification(TABLE8_TIER, workers=1)
        failed = [c.check_id for c in cert.checks if not c.passed]
        assert cert.passed, f"failing checks: {failed}"
