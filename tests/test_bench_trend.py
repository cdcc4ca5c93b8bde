"""Tests for tools/bench_trend.py: collation, splicing, drift check."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_trend", REPO_ROOT / "tools" / "bench_trend.py"
)
bench_trend = importlib.util.module_from_spec(_spec)
sys.modules["bench_trend"] = bench_trend
_spec.loader.exec_module(bench_trend)


def _write_fixture(root: Path) -> None:
    (root / "BENCH_kernels.json").write_text(json.dumps({
        "results": {
            "legacy": {"median_seconds": 0.07, "balls_per_second": 3.0e6,
                       "speedup_vs_legacy": 1.0},
            "numpy": {"median_seconds": 0.037, "balls_per_second": 5.5e6,
                      "speedup_vs_legacy": 1.9},
        },
    }))
    (root / "BENCH_service.json").write_text(json.dumps({
        "results": {
            "double": {"insert_ops_per_second": 1.0e7,
                       "lookup_ops_per_second": 2.0e7,
                       "throughput_vs_double": 1.0},
        },
        "backends": {
            "reference": {"insert_ops_per_second": 3.0e6,
                          "lookup_ops_per_second": 7.0e6,
                          "throughput_vs_reference": 1.0},
            "numpy": {"insert_ops_per_second": 1.0e7,
                      "lookup_ops_per_second": 2.0e7,
                      "throughput_vs_reference": 3.2,
                      "lookup_vs_reference": 2.85},
        },
    }))


class TestCollect:
    def test_rows_cover_sections_and_metrics(self, tmp_path):
        _write_fixture(tmp_path)
        rows = bench_trend.collect(tmp_path)
        keys = {(r[0], r[1], r[2], r[3]) for r in rows}
        assert ("kernels", "placement", "numpy", "balls") in keys
        assert ("service", "schemes", "double", "insert ops") in keys
        assert ("service", "keymap", "numpy", "lookup ops") in keys
        assert all(r[4].endswith("/s") for r in rows)

    def test_missing_files_are_skipped(self, tmp_path):
        assert bench_trend.collect(tmp_path) == []

    def test_ratio_column_names_baseline(self, tmp_path):
        _write_fixture(tmp_path)
        ratios = {
            (r[1], r[2], r[3]): r[5] for r in bench_trend.collect(tmp_path)
        }
        # Each metric carries its own ratio key, never its neighbour's.
        assert ratios[("keymap", "numpy", "insert ops")] == "3.20x vs reference"
        assert ratios[("keymap", "numpy", "lookup ops")] == "2.85x vs reference"
        assert ratios[("placement", "numpy", "balls")] == "1.90x vs legacy"
        assert ratios[("schemes", "double", "insert ops")] == "1.00x vs double"
        # No lookup_vs_* key recorded: no ratio, not the insert one.
        assert ratios[("schemes", "double", "lookup ops")] == "—"

    def test_pass_counts_add_no_rows(self, tmp_path):
        # The supermarket bench records the kernel's pass count and events
        # per pass beside its throughput; only the throughput is a row.
        (tmp_path / "BENCH_supermarket.json").write_text(json.dumps({
            "results": {
                "numpy": {"median_seconds": 0.087,
                          "events_per_second": 1.1e6,
                          "speedup_vs_legacy": 8.0,
                          "passes": 1307, "events_per_pass": 74.2},
            },
        }))
        rows = bench_trend.collect(tmp_path)
        assert rows == [(
            "supermarket", "ctmc", "numpy", "events", "1,100,000/s",
            "8.00x vs legacy",
        )]


class TestSplice:
    def test_appends_section_when_markers_absent(self, tmp_path):
        _write_fixture(tmp_path)
        block = bench_trend.render(bench_trend.collect(tmp_path))
        out = bench_trend.splice("# Doc\n\nbody\n", block)
        assert out.count(bench_trend.BEGIN_MARK) == 1
        assert out.count(bench_trend.END_MARK) == 1
        assert "| family | section |" in out

    def test_replaces_existing_block_idempotently(self, tmp_path):
        _write_fixture(tmp_path)
        block = bench_trend.render(bench_trend.collect(tmp_path))
        doc = bench_trend.splice("# Doc\n\nbody\n", block)
        again = bench_trend.splice(doc, block)
        assert again == doc
        stale = doc.replace("3.20x", "9.99x")
        assert bench_trend.splice(stale, block) == doc

    def test_preserves_text_outside_markers(self, tmp_path):
        _write_fixture(tmp_path)
        block = bench_trend.render(bench_trend.collect(tmp_path))
        doc = bench_trend.splice("# Doc\n\nbefore\n", block) + "\nafter\n"
        updated = bench_trend.splice(doc, block)
        assert "before" in updated and "after" in updated


class TestCheckMode:
    def test_repo_doc_is_current(self):
        # The shipped docs/performance.md table must match the shipped
        # BENCH_*.json artifacts — the same drift contract CI enforces.
        assert bench_trend.main(["--check"]) == 0

    def test_check_fails_on_stale_doc(self, tmp_path, capsys):
        _write_fixture(tmp_path)
        doc = tmp_path / "perf.md"
        doc.write_text("# Doc\n")

        orig_root = bench_trend.REPO_ROOT
        bench_trend.REPO_ROOT = tmp_path
        try:
            assert bench_trend.main(["--doc", str(doc)]) == 0
            assert bench_trend.main(["--check", "--doc", str(doc)]) == 0
            # Stale JSON -> table drift -> check fails.
            (tmp_path / "BENCH_kernels.json").write_text(json.dumps({
                "results": {
                    "numpy": {"balls_per_second": 9.9e6,
                              "speedup_vs_legacy": 2.5},
                },
            }))
            assert bench_trend.main(["--check", "--doc", str(doc)]) == 1
        finally:
            bench_trend.REPO_ROOT = orig_root
