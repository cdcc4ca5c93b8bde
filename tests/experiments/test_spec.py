"""Tests for the unified ExperimentSpec API."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

import repro
from repro.core import run_experiment
from repro.errors import ConfigurationError
from repro.experiments import TABLE_DEFAULTS, ExperimentSpec
from repro.experiments.cli import build_parser, main
from repro.experiments.tables import table1_load_fractions, table6_heavy_load
from repro.hashing import DoubleHashingChoices, FullyRandomChoices


class TestSpec:
    def test_frozen(self):
        spec = ExperimentSpec()
        with pytest.raises(AttributeError):
            spec.n = 99

    def test_replace(self):
        spec = ExperimentSpec(n=128, trials=5)
        other = spec.replace(trials=10)
        assert other.trials == 10 and other.n == 128
        assert spec.trials == 5  # original untouched

    def test_balls_defaults_to_n(self):
        assert ExperimentSpec(n=64).balls == 64
        assert ExperimentSpec(n=64, n_balls=1024).balls == 1024

    def test_burn_in_defaults_to_fifth_of_sim_time(self):
        assert ExperimentSpec(sim_time=500.0).effective_burn_in == 100.0
        assert ExperimentSpec(burn_in=7.0).effective_burn_in == 7.0

    @pytest.mark.parametrize(
        "bad",
        [
            {"n": 0},
            {"d": 0},
            {"trials": -1},
            {"workers": -1},
            {"backend": "fortran"},
            {"backend": "numba"},
            {"n_balls": 0},
            # Sizes must be integers: a float, a bool, a string, or None
            # where None means nothing, is refused up front.
            {"n": 1024.0},
            {"trials": 2.0},
            {"workers": 2.5},
            {"n_balls": 2048.0},
            {"d": True},
            {"n": None},
            {"trials": None},
            {"workers": None},
            {"d": "3"},
            # Seeds are None or non-negative integers, refused here rather
            # than deep inside numpy; True is not seed 1.
            {"seed": 1.5},
            {"seed": -3},
            {"seed": "7"},
            {"seed": True},
            {"seed": np.int64(-1)},
            # Horizons are finite, and each is blamed by its own name.
            {"sim_time": float("nan")},
            {"sim_time": float("inf")},
            {"sim_time": "300"},
            {"burn_in": float("nan")},
            {"burn_in": float("-inf")},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError, match=rf"^{next(iter(bad))} must"):
            ExperimentSpec(**bad)

    def test_numpy_integers_are_integers(self):
        spec = ExperimentSpec(
            n=np.int64(64), d=np.int32(2), n_balls=np.int64(128),
            trials=np.int64(2), seed=np.uint32(7), workers=np.int64(1),
        )
        assert spec.balls == 128
        assert ExperimentSpec(seed=None).seed is None
        assert ExperimentSpec(seed=0).seed == 0

    def test_removed_knobs_are_not_fields(self):
        # One chunking rule and one trial mode; Table 3 reads n; every
        # run places with random tie-breaking at the kernel's block; and
        # a command that takes a scheme name passes it to make_scheme.
        for knob in (
            {"chunks": 4}, {"trials_mode": "parallel"}, {"log2_n": 16},
            {"scheme": "double"}, {"tie_break": "left"}, {"block": 512},
        ):
            with pytest.raises(TypeError):
                ExperimentSpec(**knob)
            with pytest.raises(TypeError):
                ExperimentSpec().replace(**knob)
        assert ExperimentSpec().trials_mode == "chunked"

    def test_backend_field(self):
        assert ExperimentSpec().backend is None
        assert ExperimentSpec(backend="numpy").backend == "numpy"

    def test_top_level_reexports(self):
        assert repro.ExperimentSpec is ExperimentSpec
        assert "ExperimentSpec" in repro.__all__
        assert "MetricsRegistry" in repro.__all__
        assert "run_experiment" in repro.__all__
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert missing == []


class TestRunExperimentSpec:
    def test_spec_call_is_warning_free(self):
        spec = ExperimentSpec(n=64, d=3, trials=6, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            res = run_experiment(DoubleHashingChoices(64, 3), spec)
        assert res.distribution.trials == 6

    def test_overrides_on_top_of_spec(self):
        # The spec is the whole description: no per-call override.
        spec = ExperimentSpec(n=64, d=3, trials=4, seed=1)
        with pytest.raises(TypeError):
            run_experiment(DoubleHashingChoices(64, 3), spec, trials=8)

    def test_heavy_load_via_n_balls(self):
        spec = ExperimentSpec(n=32, d=3, trials=3, seed=1, n_balls=128)
        res = run_experiment(FullyRandomChoices(32, 3), spec)
        # 128 balls in 32 bins: mean load 4.
        assert res.distribution.counts.sum() == 3 * 32

    def test_checkpoint_resume_via_spec(self, tmp_path):
        spec = ExperimentSpec(
            n=64, d=3, trials=8, seed=2,
            checkpoint=str(tmp_path / "ck.jsonl"),
        )
        first = run_experiment(DoubleHashingChoices(64, 3), spec)
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        second = run_experiment(
            DoubleHashingChoices(64, 3), spec, metrics=registry
        )
        assert registry.get_counter("engine.chunks_resumed") == 4
        assert np.array_equal(
            first.distribution.counts, second.distribution.counts
        )


class TestTableShims:
    """Table call forms: spec calls are warning-free, pre-spec forms fail."""

    def test_spec_call_is_warning_free(self):
        spec = ExperimentSpec(n=256, d=3, trials=5, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = table1_load_fractions(spec)
        assert table.meta["n"] == 256

    def test_legacy_keywords_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            table1_load_fractions(n=256, trials=5, seed=1)

    def test_legacy_positional_d_rejected(self):
        with pytest.raises(TypeError, match="ExperimentSpec"):
            table1_load_fractions(4)

    def test_spec_plus_legacy_keywords_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            table1_load_fractions(ExperimentSpec(), n=128)

    def test_defaults_need_no_warning(self):
        # Bare call == TABLE_DEFAULTS; nothing deprecated about it.
        spec = TABLE_DEFAULTS["table6"].replace(n=128, trials=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = table6_heavy_load(spec)
        assert table.meta["m"] == 128 * 16


class TestCliSpecDefaults:
    RUN = {"n", "d", "trials", "seed"}
    ENGINE = {"workers", "checkpoint", "metrics_out", "progress"}
    # Exactly the flags each table function reads.
    FLAGS = {
        "table1": RUN | ENGINE,
        "table2": RUN | ENGINE,
        "table3": RUN | ENGINE,
        "table4": {"d", "trials", "seed"} | ENGINE,
        "table5": RUN | ENGINE,
        "table6": RUN | ENGINE,
        "table7": RUN,
        "table8": {"n", "sim_time", "seed"},
    }

    def test_subcommand_defaults_come_from_table_defaults(self):
        parser = build_parser()
        assert set(self.FLAGS) == set(TABLE_DEFAULTS)
        for name, spec in TABLE_DEFAULTS.items():
            args = vars(parser.parse_args([name]))
            assert set(args) - {"command"} == self.FLAGS[name], name
            for dest, value in args.items():
                if dest in ("command", "metrics_out", "progress"):
                    continue
                assert value == getattr(spec, dest), (name, dest)

    def test_engine_flags_parse(self):
        args = build_parser().parse_args(
            [
                "table1", "--n", "128", "--trials", "4",
                "--checkpoint", "/tmp/c.jsonl", "--metrics-out", "/tmp/m.json",
                "--progress", "--workers", "2",
            ]
        )
        assert args.checkpoint == "/tmp/c.jsonl"
        assert args.metrics_out == "/tmp/m.json"
        assert args.progress is True
        assert args.workers == 2

    def test_backend_and_block_flags_parse_and_thread(self):
        # The table subcommands take no --backend flag (numpy is the only
        # placement backend), so the spec keeps the table's backend.
        from repro.experiments.cli import _spec_from_args

        args = build_parser().parse_args(["table1"])
        assert "backend" not in vars(args)
        assert _spec_from_args("table1", args) == TABLE_DEFAULTS["table1"]

    def test_backend_flag_rejects_unknown(self, capsys):
        for value in ("fortran", "numba"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["table1", "--backend", value])

    def test_backend_default_is_none(self):
        from repro.experiments.cli import _spec_from_args

        args = build_parser().parse_args(["table1"])
        assert _spec_from_args("table1", args).backend is None

    def test_metrics_out_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(
            ["table1", "--n", "256", "--trials", "10",
             "--metrics-out", str(path)]
        ) == 0
        data = json.loads(path.read_text())
        assert data["counters"]["engine.chunks_total"] > 0
        assert data["counters"]["engine.chunks_resumed"] == 0
        assert all("seconds" in c for c in data["chunks"])

    def test_checkpoint_resume_end_to_end(self, tmp_path, capsys):
        ck = tmp_path / "ck.jsonl"
        metrics = tmp_path / "m.json"
        argv = ["table1", "--n", "256", "--trials", "10",
                "--checkpoint", str(ck)]
        assert main(argv) == 0
        out_first = capsys.readouterr().out
        assert main(argv + ["--metrics-out", str(metrics)]) == 0
        out_second = capsys.readouterr().out
        assert out_first == out_second  # resumed run prints identical table
        data = json.loads(metrics.read_text())
        resumed = data["counters"]["engine.chunks_resumed"]
        assert resumed == data["counters"]["engine.chunks_total"] > 0

    def test_progress_prints_to_stderr(self, capsys):
        assert main(
            ["table1", "--n", "128", "--trials", "4", "--progress"]
        ) == 0
        err = capsys.readouterr().err
        assert "[engine] chunk" in err
