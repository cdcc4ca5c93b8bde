"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cli import build_parser, main


class TestParser:
    def test_all_table_commands_registered(self):
        parser = build_parser()
        for i in range(1, 9):
            args = parser.parse_args([f"table{i}"])
            assert args.command == f"table{i}"

    def test_common_options(self):
        args = build_parser().parse_args(
            ["table1", "--n", "256", "--d", "4", "--trials", "7"]
        )
        assert (args.n, args.d, args.trials) == (256, 4, 7)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tableX"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "compare" in out

    def test_fluid(self, capsys):
        assert main(["fluid", "--d", "3", "--t", "1.0", "--levels", "3"]) == 0
        out = capsys.readouterr().out
        assert "0.823" in out

    def test_table1_small(self, capsys):
        assert main(["table1", "--n", "256", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Double Hashing" in out

    def test_compare_small(self, capsys):
        assert main(["compare", "--n", "256", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out

    def test_table7_small(self, capsys):
        assert main(["table7", "--n", "256", "--d", "4",
                     "--trials", "10"]) == 0
        assert "d-left" in capsys.readouterr().out

    def test_zoo_small(self, capsys):
        assert main(["zoo", "--n", "256", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "double-hashing" in out and "one-choice" in out

    def test_zoo_rejects_geometry_instead_of_rounding(self):
        # The zoo runs the geometry asked for or none: it needs an even d
        # that divides n.
        with pytest.raises(ConfigurationError):
            main(["zoo", "--d", "3", "--n", "1001", "--trials", "2"])

    def test_zoo_has_no_engine_options(self):
        with pytest.raises(SystemExit) as exc:
            main(["zoo", "--workers", "2"])
        assert exc.value.code == 2

    def test_peeling_small(self, capsys):
        assert main(["peeling", "--n", "256", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        from repro.certify.anchors import anchor_value

        threshold = anchor_value("derived/peeling-threshold/d3")
        assert f"{threshold:.5f}" in out

    def test_peeling_backend_knob(self, capsys, monkeypatch):
        # The backend knob is REPRO_BACKEND (the subcommand has no flag):
        # numpy runs, an unknown name fails loudly.
        argv = ["peeling", "--n", "256", "--trials", "2"]
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert main(argv) == 0
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            main(argv)

    def test_reconcile_small(self, capsys):
        assert main(["reconcile", "--items", "2e3", "--diff", "20",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "double" in out and "random" in out
        assert "items/s" in out

    def test_list_mentions_new_commands(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "zoo" in out and "peeling" in out and "validate" in out
        assert "serve" in out and "reconcile" in out

    def test_compare_with_scheme(self, capsys):
        assert main(["compare", "--n", "256", "--d", "2", "--trials", "5",
                     "--scheme", "tabulation"]) == 0
        out = capsys.readouterr().out
        assert "scheme=tabulation" in out and "verdict" in out

    def test_serve_small(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "serve_metrics.json"
        assert main([
            "serve", "--scheme", "tabulation", "--keys", "5e3",
            "--bins", "1024", "--batch", "512", "--churn", "0.5",
            "--lookups", "0.2", "--popularity", "zipf", "--shards", "2",
            "--metrics-out", str(metrics_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "scheme=tabulation" in out and "throughput" in out
        snap = json.loads(metrics_path.read_text())
        assert snap["series"]["service.slo"]
        sample = snap["series"]["service.slo"][-1]
        assert {"ops", "size", "max_load", "p50", "p99", "p999"} <= set(sample)

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2", "--n", "256", "--trials", "5"],
            ["table3", "--d", "3", "--log2-n", "8", "--trials", "5"],
            ["table5", "--n", "256", "--d", "4", "--trials", "4"],
            ["table6", "--n", "128", "--trials", "3"],
        ],
        ids=["table2", "table3", "table5", "table6"],
    )
    def test_remaining_table_commands_run(self, capsys, argv):
        assert main(argv) == 0
        assert "Table" in capsys.readouterr().out

    def test_table4_runs(self, capsys):
        # table4 sweeps several n internally; keep trials tiny.
        assert main(["table4", "--d", "3", "--trials", "3"]) == 0
        assert "maximum load" in capsys.readouterr().out

    def test_table8_runs(self, capsys):
        assert main(["table8", "--n", "64", "--sim-time", "30"]) == 0
        assert "queues" in capsys.readouterr().out
