"""Supermarket kernel: golden regression + bit-identity with the oracle.

The contract (``repro.kernels.supermarket``): the numpy kernel behind
:func:`repro.queueing.simulate_supermarket` consumes the
generator in exactly the same order as the oracle
:func:`repro.kernels.reference.simulate_supermarket_reference`, produces
bit-identical results, raises identical stability errors, and leaves a
shared generator in the same state (callers run several simulations off
one generator, so post-run state is part of the contract).

``tests/data/golden_supermarket.json`` pins the oracle's outputs (float
values stored as exact hex) so the contract is also stable release to
release.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, StabilityError
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.kernels import kernel_metrics, simulate_supermarket_reference
from repro.queueing import simulate_supermarket

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_supermarket.json"

SCHEMES = {"random": FullyRandomChoices, "double": DoubleHashingChoices}

CASES = {
    "random_n64_d2_lam05_s1": dict(
        scheme="random", n=64, d=2, lam=0.5, seed=1, track_tails=False,
        tie_break="random",
    ),
    "double_n128_d3_lam095_s2_tails": dict(
        scheme="double", n=128, d=3, lam=0.95, seed=2, track_tails=True,
        tie_break="random",
    ),
    "random_n32_d3_lam08_s3_left": dict(
        scheme="random", n=32, d=3, lam=0.8, seed=3, track_tails=False,
        tie_break="left",
    ),
    "random_n48_d1_lam07_s4_tails": dict(
        scheme="random", n=48, d=1, lam=0.7, seed=4, track_tails=True,
        tie_break="random",
    ),
    "double_n256_d4_lam09_s5_tails": dict(
        scheme="double", n=256, d=4, lam=0.9, seed=5, track_tails=True,
        tie_break="random",
    ),
}

BACKENDS = ["reference", "numpy"]


def _run_case(case: dict, backend: str):
    scheme = SCHEMES[case["scheme"]](case["n"], case["d"])
    kwargs = dict(
        burn_in=10.0,
        seed=case["seed"],
        track_tails=case["track_tails"],
        tie_break=case["tie_break"],
    )
    if backend == "reference":
        return simulate_supermarket_reference(
            scheme, case["lam"], 60.0, **kwargs
        )
    return simulate_supermarket(
        scheme, case["lam"], 60.0, backend=backend, **kwargs
    )


def _assert_results_identical(a, b, *, context: str = ""):
    for field in (
        "mean_sojourn_time",
        "completed_jobs",
        "mean_queue_length",
        "sim_time",
        "n_arrivals",
        "n_departures",
        "busy_fraction",
    ):
        assert getattr(a, field) == getattr(b, field), f"{field} {context}"
    if a.tail_fractions is None:
        assert b.tail_fractions is None, context
    else:
        assert b.tail_fractions is not None, context
        np.testing.assert_array_equal(
            a.tail_fractions, b.tail_fractions, err_msg=context
        )


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


class TestGolden:
    def test_golden_file_covers_all_cases(self, golden):
        assert set(golden) == set(CASES)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_backend_matches_golden(self, golden, name, backend):
        res = _run_case(CASES[name], backend)
        want = golden[name]
        assert res.mean_sojourn_time.hex() == want["mean_sojourn_time_hex"]
        assert res.completed_jobs == want["completed_jobs"]
        assert res.mean_queue_length.hex() == want["mean_queue_length_hex"]
        assert res.busy_fraction.hex() == want["busy_fraction_hex"]
        assert res.n_arrivals == want["n_arrivals"]
        assert res.n_departures == want["n_departures"]
        if want["tail_fractions_hex"] is None:
            assert res.tail_fractions is None
        else:
            assert [
                float(v).hex() for v in res.tail_fractions
            ] == want["tail_fractions_hex"]


class TestCrossBackendBitIdentity:
    # Wider geometries than the goldens, including heavy load and d=1.
    GEOMETRIES = [
        ("random", 64, 2, 0.9, True, "random", 11),
        ("double", 100, 3, 0.99, False, "random", 12),
        ("random", 16, 4, 0.6, True, "left", 13),
        ("double", 512, 2, 0.8, False, "random", 14),
        ("random", 24, 1, 0.75, True, "random", 15),
    ]

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "reference"])
    @pytest.mark.parametrize("geom", GEOMETRIES)
    def test_matches_reference_and_rng_state(self, geom, backend):
        kind, n, d, lam, tails, tie, seed = geom
        g_ref = np.random.default_rng(seed)
        g_bk = np.random.default_rng(seed)
        ref = simulate_supermarket_reference(
            SCHEMES[kind](n, d), lam, 50.0, burn_in=5.0, seed=g_ref,
            track_tails=tails, tie_break=tie,
        )
        res = simulate_supermarket(
            SCHEMES[kind](n, d), lam, 50.0, burn_in=5.0, seed=g_bk,
            track_tails=tails, tie_break=tie, backend=backend,
        )
        _assert_results_identical(ref, res, context=f"{geom} {backend}")
        # Post-run generator state is part of the contract: sequential
        # runs off one generator must agree across backends too.
        assert (
            g_ref.bit_generator.state == g_bk.bit_generator.state
        ), f"generator state diverged: {geom} {backend}"

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "reference"])
    def test_sequential_runs_share_one_generator(self, backend):
        """Two back-to-back runs on one generator (the batch-runner
        pattern) are bit-identical across backends."""
        def two_runs(fn):
            rng = np.random.default_rng(77)
            out = []
            for lam in (0.7, 0.95):
                out.append(fn(FullyRandomChoices(48, 2), lam, rng))
            return out

        ref = two_runs(
            lambda s, lam, rng: simulate_supermarket_reference(
                s, lam, 40.0, burn_in=5.0, seed=rng
            )
        )
        got = two_runs(
            lambda s, lam, rng: simulate_supermarket(
                s, lam, 40.0, burn_in=5.0, seed=rng, backend=backend
            )
        )
        for a, b in zip(ref, got):
            _assert_results_identical(a, b, context=backend)

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "reference"])
    def test_stability_error_parity(self, backend):
        messages = []
        for fn in (
            lambda: simulate_supermarket_reference(
                FullyRandomChoices(64, 2), 0.9, 200.0, seed=21,
                max_total_jobs=5,
            ),
            lambda: simulate_supermarket(
                FullyRandomChoices(64, 2), 0.9, 200.0, seed=21,
                max_total_jobs=5, backend=backend,
            ),
        ):
            with pytest.raises(StabilityError) as excinfo:
                fn()
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "appears unstable" in messages[0]


def _kernel_counters():
    return dict(kernel_metrics().snapshot()["counters"])


def _supermarket_runs():
    timers = kernel_metrics().snapshot()["timers"]
    return timers.get("kernel.supermarket_seconds", {}).get("count", 0)


class TestDriver:
    def test_validation_errors(self):
        scheme = FullyRandomChoices(16, 2)
        with pytest.raises(ConfigurationError, match="lambda"):
            simulate_supermarket(scheme, 1.2, 10.0)
        with pytest.raises(ConfigurationError, match="sim_time"):
            simulate_supermarket(scheme, 0.5, -1.0)
        with pytest.raises(ConfigurationError, match="burn_in"):
            simulate_supermarket(scheme, 0.5, 10.0, burn_in=20.0)
        with pytest.raises(ConfigurationError, match="tie_break"):
            simulate_supermarket(scheme, 0.5, 10.0, tie_break="up")
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            simulate_supermarket(scheme, 0.5, 10.0, backend="fortran")

    def test_event_counts_are_consistent(self):
        res = simulate_supermarket(
            FullyRandomChoices(64, 2), 0.8, 100.0, burn_in=10.0, seed=9,
            backend="numpy",
        )
        assert res.n_events == res.n_arrivals + res.n_departures
        assert res.n_departures >= res.completed_jobs
        assert res.events_per_time == pytest.approx(
            res.n_events / res.sim_time
        )
        # In steady state the busy fraction approaches lambda.
        assert res.busy_fraction == pytest.approx(0.8, abs=0.1)

    def test_metrics_emitted(self):
        # simulate_supermarket records into the global kernel registry.
        before, runs = _kernel_counters(), _supermarket_runs()
        res = simulate_supermarket(
            FullyRandomChoices(32, 2), 0.7, 50.0, seed=5, backend="numpy",
        )
        after = _kernel_counters()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("kernel.supermarket_events") == res.n_events
        assert delta("kernel.supermarket_completions") == res.completed_jobs
        assert delta("kernel.calls.numpy") == 1
        assert _supermarket_runs() == runs + 1

    def test_numba_request_fails_loudly(self):
        # No silent downgrade to numpy: the request raises before
        # simulating and logs nothing to the kernel registry.
        before = _kernel_counters()
        events = len(kernel_metrics().events)
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            simulate_supermarket(
                FullyRandomChoices(32, 2), 0.6, 40.0, seed=6, backend="numba",
            )
        assert _kernel_counters() == before
        assert len(kernel_metrics().events) == events
