"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

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

    def test_zoo_rejects_geometry_instead_of_rounding(self, capsys):
        # The zoo runs the geometry asked for or none: it needs an even d
        # that divides n.
        assert main(["zoo", "--d", "3", "--n", "1001", "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro zoo: error: ")
        assert err.count("\n") == 1

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
        capsys.readouterr()
        assert main(argv) == 1
        assert "unknown kernel backend" in capsys.readouterr().err

    def test_reconcile_small(self, capsys):
        assert main(["reconcile", "--items", "2e3", "--diff", "20",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "double" in out and "random" in out
        assert "items/s" in out

    def test_list_mentions_new_commands(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "zoo" in out and "peeling" in out and "certify" in out
        assert "serve" in out and "reconcile" in out

    def test_list_prints_the_parser_commands(self, capsys):
        main(["list"])
        listed = capsys.readouterr().out.split(":", 1)[1].split()
        assert listed == sorted(_subcommands())
        for name in listed:
            assert build_parser().parse_args([name]).command == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["validate"])

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
            ["table3", "--d", "3", "--n", "256", "--trials", "5"],
            ["table5", "--n", "256", "--d", "4", "--trials", "4"],
            ["table6", "--n", "128", "--trials", "3"],
        ],
        ids=["table2", "table3", "table5", "table6"],
    )
    def test_remaining_table_commands_run(self, capsys, argv):
        assert main(argv) == 0
        assert "Table" in capsys.readouterr().out

    def test_table3_takes_n_like_every_table(self, capsys):
        # The expected text is what ``table3 --log2-n 8 --trials 5``
        # printed: the same run, now sized by ``--n``.
        assert main(["table3", "--n", "256", "--trials", "5"]) == 0
        assert capsys.readouterr().out == (
            "Table 3 (n = 2^8, d = 3): 3 choices, n = 256 balls and bins\n"
            "  [n=256, d=3, trials=5]\n"
            "Load  Fully Random  Double Hashing\n"
            "----  ------------  --------------\n"
            "0     0.17031       0.16953       \n"
            "1     0.66094       0.66094       \n"
            "2     0.16719       0.16953       \n"
            "3     0.00156       0             \n"
        )

    def test_table4_runs(self, capsys):
        # table4 sweeps several n internally; keep trials tiny.
        assert main(["table4", "--d", "3", "--trials", "3"]) == 0
        assert "maximum load" in capsys.readouterr().out

    def test_table8_runs(self, capsys):
        assert main(["table8", "--n", "64", "--sim-time", "30"]) == 0
        assert "queues" in capsys.readouterr().out

    def test_table8_prints_the_table_function_at_the_cli_spec(self, capsys):
        # The CLI runs TABLE_DEFAULTS["table8"] with the flags applied and
        # nothing else (burn-in included: sim_time / 5 by default).
        from repro.experiments import format_table, table8_queueing
        from repro.experiments.config import TABLE_DEFAULTS

        assert main(["table8", "--n", "64", "--sim-time", "30"]) == 0
        spec = TABLE_DEFAULTS["table8"].replace(n=64, sim_time=30.0)
        assert capsys.readouterr().out == (
            format_table(table8_queueing(spec)) + "\n"
        )

    def test_table8_runs_at_the_requested_n(self, capsys):
        assert main(["table8", "--n", "8192", "--sim-time", "0.5"]) == 0
        assert "n = 8192 queues" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["table8", "--workers", "2"],
            ["table8", "--d", "4"],
            ["table8", "--metrics-out", "m.json"],
            ["table7", "--checkpoint", "x"],
            ["table7", "--progress"],
            ["table4", "--n", "64"],
            ["table1", "--retries", "1"],
            ["table1", "--chunk-timeout", "5"],
            ["table1", "--chunks", "4"],
            ["table1", "--trials-mode", "parallel"],
            ["table1", "--block", "512"],
            ["table3", "--log2-n", "16"],
            ["compare", "--block", "512"],
            ["compare", "--chunks", "4"],
            ["compare", "--trials-mode", "parallel"],
            ["certify", "--chunks", "4"],
            ["certify", "--trials-mode", "parallel"],
        ],
        ids=lambda argv: "-".join(argv),
    )
    def test_ignored_flags_are_usage_errors(self, argv):
        # A subcommand registers only the flags its function reads.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_checkpoint_of_another_run_is_one_line(self, tmp_path, capsys):
        # Rerunning a checkpointed table at another n is refused with one
        # line on stderr and exit 1, not a traceback.
        argv = ["table1", "--n", "1024", "--trials", "4",
                "--checkpoint", str(tmp_path / "ck.jsonl")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv[:2], "2048", *argv[3:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro table1: error: checkpoint ")
        assert "different run" in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    def test_negative_seed_is_one_line(self, capsys):
        assert main(["table1", "--n", "256", "--trials", "2",
                     "--seed", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro table1: error: seed must be non-negative, got -3\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--bins", "65536.5"],
            ["serve", "--bins", "-1"],
            ["serve", "--keys", "1e6x"],
            ["serve", "--keys=-5e3"],  # argparse reads "-5e3" as a flag
            ["reconcile", "--items", "inf"],
            ["reconcile", "--items=-1e6"],
            ["reconcile", "--diff", "1.5"],
            ["reconcile", "--diff", "-3"],
        ],
        ids=lambda argv: "".join(argv[1:]),
    )
    def test_count_flags_refuse_non_counts(self, argv, capsys):
        # A count that is not a whole number >= 0 is a usage error, never
        # truncated (--diff 1.5 must not run with a delta of 1).
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = argv[1].split("=")[0]
        assert f"argument {flag}: expected a" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["--seed=-3", "--seed=1.5"])
    @pytest.mark.parametrize("command", ["serve", "peeling", "zoo", "reconcile"])
    def test_seed_flags_refuse_non_seeds(self, command, seed, capsys):
        # A seed that is not a whole number >= 0 is a usage error, caught
        # before numpy sees it.
        with pytest.raises(SystemExit) as exc:
            main([command, seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"repro {command}: error: argument --seed: expected a" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text,want", [("65536", 65536), ("6.5536e4", 65536), ("1e6", 10**6),
                      ("0", 0)],
    )
    def test_count_flags_accept_whole_numbers(self, text, want):
        parser = build_parser()
        for argv, dest in (
            (["serve", "--bins", text], "bins"),
            (["serve", "--keys", text], "keys"),
            (["reconcile", "--items", text], "items"),
            (["reconcile", "--diff", text], "diff"),
        ):
            got = getattr(parser.parse_args(argv), dest)
            assert got == want and type(got) is int

    def test_simulation_errors_keep_their_traceback(self, monkeypatch):
        # A SimulationError signals a bug, so main lets it through.
        from repro.errors import SimulationError
        from repro.experiments import cli

        def broken(spec, **kwargs):
            raise SimulationError("invariant violated")

        monkeypatch.setitem(
            cli._ENGINE_TABLES, "table1", (cli._RUN_FIELDS, broken)
        )
        with pytest.raises(SimulationError, match="invariant violated"):
            main(["table1", "--n", "256", "--trials", "2"])

    def test_compare_metrics_cover_both_runs(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        ck = tmp_path / "ck.jsonl"
        assert main(["compare", "--n", "128", "--trials", "8",
                     "--checkpoint", str(ck), "--progress",
                     "--metrics-out", str(metrics)]) == 0
        # --progress reports every chunk of both sub-runs.
        data = json.loads(metrics.read_text())
        chunks = data["counters"]["engine.chunks_total"]
        assert capsys.readouterr().err.count("[engine] chunk") == chunks
        assert data["counters"]["experiment.trials"] == 2 * 8
        # Both sub-runs checkpoint, each to its own file.
        assert (tmp_path / "ck.random.jsonl").exists()
        assert (tmp_path / "ck.double.jsonl").exists()


def _subcommands():
    return set(build_parser().parse_args(["list"]).commands)


REPO = Path(__file__).resolve().parents[2]
DOCS = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    *sorted((REPO / "docs").glob("*.md")),
    REPO / ".claude" / "skills" / "verify" / "SKILL.md",
]


def test_documented_commands_exist():
    """Every ``python -m repro <cmd>`` in the docs names a subcommand."""
    known = _subcommands()
    stale = [
        f"{path.relative_to(REPO)}: {cmd}"
        for path in DOCS
        if path.exists()
        for cmd in re.findall(r"python3? -m repro ([a-z][\w-]*)", path.read_text())
        if cmd not in known
    ]
    assert stale == []
