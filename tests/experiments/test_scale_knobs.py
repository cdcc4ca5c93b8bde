"""The giant-n knob: spec field, CLI flags, certify override."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.cli import _spec_from_args, build_parser
from repro.experiments.config import ExperimentSpec


class TestSpecFields:
    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.trials_mode == "chunked"

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="trials_mode"):
            ExperimentSpec(trials_mode="prange")

    def test_replace_round_trips(self):
        spec = ExperimentSpec().replace(trials_mode="parallel")
        assert spec.trials_mode == "parallel"


class TestCliFlags:
    def test_table_subcommands_accept_knobs(self):
        args = build_parser().parse_args(
            ["table1", "--trials-mode", "parallel"]
        )
        spec = _spec_from_args("table1", args)
        assert spec.trials_mode == "parallel"

    def test_defaults_flow_from_spec(self):
        args = build_parser().parse_args(["table1"])
        spec = _spec_from_args("table1", args)
        assert spec.trials_mode == "chunked"

    def test_certify_accepts_knobs(self):
        args = build_parser().parse_args(
            ["certify", "--trials-mode", "parallel"]
        )
        assert args.trials_mode == "parallel"
        defaults = build_parser().parse_args(["certify"])
        assert defaults.trials_mode is None


class TestCertifyOverride:
    def test_override_reaches_every_run(self):
        from repro.certify.runner import run_certification
        from repro.certify.tiers import TIERS

        tier = TIERS["smoke"]
        cert = run_certification(tier, trials_mode="parallel")
        assert cert.passed, [c for c in cert.checks if not c.passed]


class TestEndToEnd:
    def test_parallel_mode_statistics_match_chunked(self):
        # Different RNG construction, same law: the two modes must agree
        # statistically on an easy observable (the d=3 empty-bin
        # fraction, ~0.176 with tight concentration at this scale).
        from repro.core.runner import run_experiment
        from repro.hashing import DoubleHashingChoices

        n, trials = 1 << 12, 16
        base = ExperimentSpec(n=n, d=3, trials=trials, seed=5)
        chunked = run_experiment(DoubleHashingChoices(n, 3), base)
        parallel = run_experiment(
            DoubleHashingChoices(n, 3), base.replace(trials_mode="parallel")
        )
        f_chunked = chunked.distribution.counts[0] / (n * trials)
        f_parallel = parallel.distribution.counts[0] / (n * trials)
        assert abs(f_chunked - f_parallel) < 0.01
        assert np.isclose(f_parallel, 0.1765, atol=0.01)
