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
            {"tie_break": "nope"},
            {"block": 0},
            {"workers": -1},
            {"max_retries": -1},
            {"chunk_timeout": -2.0},
            {"backend": "fortran"},
            {"backend": "numba"},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(**bad)

    def test_backend_field(self):
        assert ExperimentSpec().backend is None
        assert ExperimentSpec(backend="numpy").backend == "numpy"

    def test_block_default_is_kernel_default(self):
        from repro.kernels import DEFAULT_BLOCK

        assert ExperimentSpec().block == DEFAULT_BLOCK

    def test_engine_config_mirrors_spec(self):
        spec = ExperimentSpec(
            workers=3, chunks=7, max_retries=5, chunk_timeout=9.0,
            checkpoint="/tmp/x.jsonl",
        )
        cfg = spec.engine_config()
        assert (cfg.workers, cfg.chunks, cfg.max_retries) == (3, 7, 5)
        assert cfg.chunk_timeout == 9.0
        assert cfg.checkpoint_path == "/tmp/x.jsonl"

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
        spec = ExperimentSpec(n=64, d=3, trials=4, seed=1)
        res = run_experiment(DoubleHashingChoices(64, 3), spec, trials=8)
        assert res.distribution.trials == 8

    def test_heavy_load_via_n_balls(self):
        spec = ExperimentSpec(n=32, d=3, trials=3, seed=1, n_balls=128)
        res = run_experiment(FullyRandomChoices(32, 3), spec)
        # 128 balls in 32 bins: mean load 4.
        assert res.distribution.counts.sum() == 3 * 32

    def test_metrics_out_writes_snapshot(self, tmp_path):
        path = tmp_path / "m.json"
        spec = ExperimentSpec(
            n=64, d=3, trials=6, seed=1, metrics_out=str(path)
        )
        res = run_experiment(DoubleHashingChoices(64, 3), spec)
        data = json.loads(path.read_text())
        assert data["counters"]["experiment.trials"] == 6
        assert data["counters"]["rng.draws_estimate"] == 6 * 64 * 3
        assert len(data["chunks"]) > 0
        assert res.metrics is not None

    def test_checkpoint_resume_via_spec(self, tmp_path):
        spec = ExperimentSpec(
            n=64, d=3, trials=8, seed=2, chunks=4,
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
    def test_subcommand_defaults_come_from_table_defaults(self):
        parser = build_parser()
        for name, spec in TABLE_DEFAULTS.items():
            args = parser.parse_args([name])
            assert args.n == spec.n, name
            assert args.d == spec.d, name
            assert args.trials == spec.trials, name
            assert args.seed == spec.seed, name
            assert args.workers == spec.workers, name
            assert args.retries == spec.max_retries, name

    def test_engine_flags_parse(self):
        args = build_parser().parse_args(
            [
                "table1", "--n", "128", "--trials", "4",
                "--retries", "5", "--chunk-timeout", "30",
                "--checkpoint", "/tmp/c.jsonl", "--metrics-out", "/tmp/m.json",
                "--progress", "--chunks", "2",
            ]
        )
        assert args.retries == 5
        assert args.chunk_timeout == 30.0
        assert args.checkpoint == "/tmp/c.jsonl"
        assert args.metrics_out == "/tmp/m.json"
        assert args.progress is True
        assert args.chunks == 2

    def test_backend_and_block_flags_parse_and_thread(self):
        # The table subcommands take no --backend flag (numpy is the only
        # placement backend); --block threads into the spec.
        from repro.experiments.cli import _spec_from_args

        args = build_parser().parse_args(["table1", "--block", "512"])
        assert args.block == 512
        spec = _spec_from_args("table1", args)
        assert spec.backend is None and spec.block == 512

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
        assert "engine.retries" in data["counters"]
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
