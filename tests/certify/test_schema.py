"""Tests for certification.json validation, writing, and the golden document."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.certify.verdict import (
    SCHEMA_VERSION,
    format_summary,
    validate_certification,
    write_certification,
)

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "golden_certification.json"
GOLDEN_EVERY = GOLDEN.with_name("golden_certification_every.json")


def _minimal_doc() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "paper": "arXiv:1209.5360v4 (Mitzenmacher, SPAA 2014)",
        "tier": "micro",
        "description": "hand-built document for schema tests",
        "passed": True,
        "backend": "numpy",
        "thresholds": {
            "anchor_z": 6.0,
            "alpha": 1e-3,
            "queueing_rel_tol": 0.12,
            "fluid_rel_tol": 1.5e-3,
        },
        "wall_clock_seconds": 1.25,
        "runs": [
            {
                "table": "table1",
                "variant": "d3",
                "params": {"n": 1024, "d": 3, "trials": 10, "seed": 101},
                "wall_clock_seconds": 1.25,
            }
        ],
        "checks": [
            {
                "check_id": "anchor:d3:table1/d3/random/load0",
                "table": "table1",
                "variant": "d3",
                "kind": "anchor",
                "passed": True,
                "measured": 0.177,
                "expected": 0.1769,
                "tolerance": 0.03,
                "anchor_id": "table1/d3/random/load0",
                "p_value": None,
                "p_holm": None,
                "effect_size": None,
                "detail": "within envelope",
            }
        ],
        "summary": {
            "n_checks": 1,
            "n_failed": 0,
            "by_kind": {"anchor": {"total": 1, "failed": 0}},
            "tables": ["table1"],
        },
    }


class TestValidate:
    def test_minimal_doc_valid(self):
        assert validate_certification(_minimal_doc()) == []

    def test_non_dict_rejected(self):
        assert validate_certification([1, 2]) != []
        assert validate_certification(None) != []

    @pytest.mark.parametrize("field", ["tier", "runs", "checks", "summary"])
    def test_missing_top_level_field(self, field):
        doc = _minimal_doc()
        del doc[field]
        assert any(field in p for p in validate_certification(doc))

    def test_wrong_schema_version(self):
        doc = _minimal_doc()
        doc["schema_version"] = SCHEMA_VERSION + 1
        assert any("schema_version" in p for p in validate_certification(doc))

    def test_missing_threshold(self):
        doc = _minimal_doc()
        del doc["thresholds"]["alpha"]
        assert any("alpha" in p for p in validate_certification(doc))

    def test_unknown_check_kind(self):
        doc = _minimal_doc()
        doc["checks"][0]["kind"] = "vibes"
        assert any("kind" in p for p in validate_certification(doc))

    def test_non_numeric_measured(self):
        doc = _minimal_doc()
        doc["checks"][0]["measured"] = "0.177"
        assert any("measured" in p for p in validate_certification(doc))

    def test_empty_checks_rejected(self):
        doc = _minimal_doc()
        doc["checks"] = []
        doc["summary"]["n_checks"] = 0
        assert any("non-empty" in p for p in validate_certification(doc))

    def test_duplicate_check_ids(self):
        doc = _minimal_doc()
        doc["checks"].append(copy.deepcopy(doc["checks"][0]))
        doc["summary"]["n_checks"] = 2
        assert any("unique" in p for p in validate_certification(doc))

    def test_summary_count_mismatch(self):
        doc = _minimal_doc()
        doc["summary"]["n_checks"] = 7
        assert any("n_checks" in p for p in validate_certification(doc))

    def test_passed_must_track_failures(self):
        doc = _minimal_doc()
        doc["checks"][0]["passed"] = False
        doc["summary"]["n_failed"] = 1
        assert any("passed" in p for p in validate_certification(doc))
        doc["passed"] = False
        assert validate_certification(doc) == []

    def test_malformed_run_entry(self):
        doc = _minimal_doc()
        del doc["runs"][0]["params"]
        assert any("params" in p for p in validate_certification(doc))


class TestWrite:
    def test_roundtrip(self, tmp_path):
        out = tmp_path / "cert.json"
        write_certification(_minimal_doc(), out)
        assert validate_certification(json.loads(out.read_text())) == []

    def test_refuses_invalid(self, tmp_path):
        doc = _minimal_doc()
        doc["checks"] = []
        doc["summary"]["n_checks"] = 0
        with pytest.raises(ValueError, match="refusing to write"):
            write_certification(doc, tmp_path / "cert.json")
        assert not (tmp_path / "cert.json").exists()

    def test_accepts_certification_object(self, micro_cert, tmp_path):
        out = write_certification(micro_cert, tmp_path / "cert.json")
        assert validate_certification(json.loads(out.read_text())) == []


class TestFormatSummary:
    def test_mentions_verdict_and_kinds(self):
        text = format_summary(_minimal_doc())
        assert "PASSED" in text
        assert "anchor" in text
        assert "FAIL" not in text

    def test_lists_failures(self):
        doc = _minimal_doc()
        doc["checks"][0]["passed"] = False
        doc["passed"] = False
        doc["summary"]["n_failed"] = 1
        doc["summary"]["by_kind"]["anchor"]["failed"] = 1
        text = format_summary(doc)
        assert "FAILED" in text
        assert "FAIL anchor:d3:table1/d3/random/load0" in text


def _normalize(doc: dict) -> dict:
    """Strip the only nondeterministic fields (wall-clock timings)."""
    doc = copy.deepcopy(doc)
    doc["wall_clock_seconds"] = 0.0
    for run in doc["runs"]:
        run["wall_clock_seconds"] = 0.0
    return doc


class TestGoldenDocument:
    """The committed golden verdicts pin the schema and the micro-tier and
    every-certifier-tier output.

    After an *intentional* change to the runner or registry, regenerate by
    running ``MICRO_TIER`` (resp. ``EVERY_TIER``; see conftest) with
    ``workers=1``, normalizing wall-clock fields to 0.0, and writing the
    ``to_dict()`` JSON (indent=2) to ``tests/data/golden_certification.json``
    (resp. ``golden_certification_every.json``).
    """

    def test_golden_is_schema_valid(self):
        assert validate_certification(json.loads(GOLDEN.read_text())) == []

    def test_micro_run_matches_golden(self, micro_cert):
        golden = _normalize(json.loads(GOLDEN.read_text()))
        fresh = _normalize(micro_cert.to_dict())
        assert fresh == golden

    def test_every_certifier_matches_golden(self, every_cert):
        """All ten certifiers at toy scale (``EVERY_TIER``), pinned the same
        way; the JSON round trip turns the runs' tuple extras into lists."""
        golden = _normalize(json.loads(GOLDEN_EVERY.read_text()))
        fresh = _normalize(json.loads(json.dumps(every_cert.to_dict())))
        assert fresh == golden
