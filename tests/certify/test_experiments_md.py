"""Tests for EXPERIMENTS.md: the renderer and the drift check."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.certify.anchors import anchor_value
from repro.certify.experiments_md import (
    FAIL,
    PASS,
    check_experiments_md_drift,
    fmt_fraction,
    render_experiments_md,
)

from .conftest import MICRO_TIER

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"

#: The heading each certifier's section opens with.
HEADINGS = {
    **{f"table{k}": f"## Table {k} — " for k in range(1, 9)},
    "peeling": "## Peeling — ",
    "schemes": "## Hash-family zoo — ",
}


def _mark(check) -> str:
    return PASS if check.passed else FAIL


@pytest.fixture(scope="module")
def every_md(every_cert) -> str:
    return render_experiments_md(every_cert)


class TestRender:
    def test_every_certifier_has_a_section(self, every_cert, every_md):
        lines = every_md.splitlines()
        for run in every_cert.runs:
            assert any(line.startswith(HEADINGS[run.table]) for line in lines)
            assert any(
                line.startswith("### ") and f"seed {run.params['seed']}" in line
                for line in lines
            ), run.variant
        assert "## Runs" in lines

    def test_each_anchor_check_prints_its_value_and_mark(
        self, every_cert, every_md
    ):
        """In its table cell, or on its own line when no row holds it."""
        anchors = [c for c in every_cert.checks if c.kind == "anchor"]
        assert anchors
        for c in anchors:
            shown = {fmt_fraction(c.measured), f"{c.measured:.2f}",
                     f"{c.measured:.5f}"}
            assert (
                any(f" {value} {_mark(c)} |" in every_md for value in shown)
                or f"- `{c.check_id}` {_mark(c)}: " in every_md
            ), c.check_id

    def test_every_check_is_marked_once(self, every_cert, every_md):
        marks = sum(
            line.count(PASS) + line.count(FAIL)
            for line in every_md.splitlines()
            if line.startswith(("|", "- `"))
        )
        assert marks == len(every_cert.checks)

    def test_a_failing_check_renders_the_failing_mark(
        self, every_cert, every_md
    ):
        target = next(
            c for c in every_cert.checks
            if c.anchor_id == "table1/d3/double/load0"
        )
        flipped = dataclasses.replace(target, passed=not target.passed)
        cert = dataclasses.replace(every_cert, checks=[
            flipped if c is target else c for c in every_cert.checks
        ])
        text = render_experiments_md(cert)
        cell = fmt_fraction(target.measured)
        assert f" {cell} {_mark(target)} |" in every_md
        assert f" {cell} {_mark(flipped)} |" in text
        if target.passed:
            assert "**Verdict: FAIL.**" in text
            assert f"`{target.check_id}`" in text.split("Failing: ")[1]

    def test_rendering_twice_gives_the_same_text(self, every_cert, every_md):
        assert render_experiments_md(every_cert) == every_md

    def test_workers_and_wall_clocks_do_not_show(self, every_cert, every_md):
        runs = [
            dataclasses.replace(
                r, params={**r.params, "workers": 7}, wall_clock_seconds=99.0
            )
            for r in every_cert.runs
        ]
        cert = dataclasses.replace(
            every_cert, runs=runs, wall_clock_seconds=123.0
        )
        assert render_experiments_md(cert) == every_md

    def test_a_fresh_render_is_in_sync_with_the_registry(
        self, every_md, tmp_path
    ):
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text(every_md)
        assert check_experiments_md_drift(path) == []


class TestDriftCheck:
    def test_committed_document_is_in_sync(self):
        assert check_experiments_md_drift(EXPERIMENTS_MD) == []

    def test_an_edited_paper_cell_is_reported(self, tmp_path):
        paper = fmt_fraction(anchor_value("table1/d3/random/load0"))
        text = EXPERIMENTS_MD.read_text()
        row = f"| 0 | {paper} |"  # Table 1, d = 3, load 0, paper random
        assert text.count(row) == 1
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text(text.replace(row, "| 0 | 0.17000 |"))
        assert check_experiments_md_drift(path) == [
            "Table 1/d = 3 {'Load': '0'}: column 'paper random' is "
            f"'0.17000', registry says '{paper}'"
        ]

    def test_a_document_without_paper_cells_is_reported(self, tmp_path):
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text("# EXPERIMENTS\n")
        assert check_experiments_md_drift(path) == [
            f"{path} prints no paper cell"
        ]


class TestCli:
    def test_emit_writes_the_verdict_and_the_document(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.certify.tiers import TIERS
        from repro.experiments.cli import main

        monkeypatch.setitem(TIERS, "standard", MICRO_TIER)
        out, md = tmp_path / "cert.json", tmp_path / "E.md"
        assert main([
            "certify", "--tier", "standard", "--workers", "1",
            "--out", str(out),
            "--emit-experiments-md", "--experiments-md", str(md),
        ]) == 0
        assert json.loads(out.read_text())["tier"] == "micro"
        text = md.read_text()
        assert text.startswith("# EXPERIMENTS")
        assert text.endswith("**Verdict: PASS.** 20 of 20 checks pass "
                             "(tier `micro`, backend `numpy`).\n")
        assert check_experiments_md_drift(md) == []
        assert f"wrote {md}" in capsys.readouterr().out

    def test_emit_refuses_any_tier_but_standard(
        self, tmp_path, monkeypatch, capsys
    ):
        """The bare command (the default tier is ``smoke``) exits 1 with
        one line and writes neither the verdict nor the document."""
        from repro.certify.tiers import TIERS
        from repro.experiments.cli import main

        monkeypatch.setitem(TIERS, "smoke", MICRO_TIER)
        monkeypatch.chdir(tmp_path)
        md = tmp_path / "EXPERIMENTS.md"
        md.write_text("the committed document\n")
        assert main(["certify", "--emit-experiments-md"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro certify: error: ")
        assert captured.err.count("\n") == 1
        assert md.read_text() == "the committed document\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["EXPERIMENTS.md"]
