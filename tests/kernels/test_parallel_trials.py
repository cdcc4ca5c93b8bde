"""Seed-equivalence tests for the parallel-trials path.

The contract under test: `run_parallel_trials` results are a pure
function of `(root, global trial index, spec)` — independent of
chunking, shard count, and host — and the fused fast path
matches a straight-line scalar oracle of the documented draw contract.
"""

import numpy as np
import pytest

from repro.core.runner import run_experiment
from repro.core.vectorized import simulate_batch
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentSpec
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.kernels import default_shards, run_parallel_trials
from repro.kernels.blockrng import splitmix64_block, trial_seed
from repro.kernels.parallel_trials import (
    PLACEMENT_TIE_BITS,
    _sharded_histogram,
    fused_parallel_supported,
)

N, D, M = 256, 3, 512


def _oracle_trial(key, n, d, n_balls):
    """Scalar re-implementation of the fused draw contract, from the spec:

    ball b consumes counter draws 2b and 2b+1; the first yields f
    (log2 n bits) and the odd stride g, the second d tie keys; placement
    minimizes load << key_shift | tie << cidx_bits | bin.
    """
    lb = n.bit_length() - 1
    cidx_bits = n.bit_length()
    key_shift = PLACEMENT_TIE_BITS + cidx_bits
    raws = splitmix64_block(int(key), 0, 2 * n_balls)
    loads = [0] * n
    for b in range(n_balls):
        ra = int(raws[2 * b])
        rb = int(raws[2 * b + 1])
        f = ra & (n - 1)
        g = 2 * ((ra >> lb) & (n // 2 - 1)) + 1
        best_key, best = None, None
        cur = f
        for j in range(d):
            if j:
                cur = (cur + g) & (n - 1)
            tie = (rb >> (j * PLACEMENT_TIE_BITS)) & ((1 << PLACEMENT_TIE_BITS) - 1)
            k = (loads[cur] << key_shift) | (tie << cidx_bits) | cur
            if best_key is None or k < best_key:
                best_key, best = k, cur
        loads[best] += 1
    return np.bincount(loads)


class TestFusedOracle:
    def test_matches_scalar_oracle(self):
        trials = 6
        got = run_parallel_trials(DoubleHashingChoices(N, D), M, trials, root=5)
        for i in range(trials):
            expected = _oracle_trial(trial_seed(5, i), N, D, M)
            row = got[i, : expected.size]
            assert np.array_equal(row, expected), f"trial {i} diverged"
            assert not got[i, expected.size :].any()

    def test_ball_conservation_and_width(self):
        got = run_parallel_trials(DoubleHashingChoices(N, D), M, 4, root=9)
        totals = (got * np.arange(got.shape[1])).sum(axis=1)
        assert (totals == M).all()
        assert got[:, -1].any()  # width is trimmed to max load + 1


class TestSeedEquivalence:
    def test_chunking_invariance(self):
        scheme = DoubleHashingChoices(N, D)
        whole = run_parallel_trials(scheme, M, 4, root=7)
        first = run_parallel_trials(scheme, M, 2, root=7)
        second = run_parallel_trials(scheme, M, 2, root=7, trial_offset=2)
        width = max(whole.shape[1], first.shape[1], second.shape[1])

        def pad(a):
            return np.pad(a, ((0, 0), (0, width - a.shape[1])))

        assert np.array_equal(pad(whole), np.vstack([pad(first), pad(second)]))

    def test_shard_invariance(self):
        scheme = DoubleHashingChoices(N, D)
        assert np.array_equal(
            run_parallel_trials(scheme, M, 3, root=11, shards=1),
            run_parallel_trials(scheme, M, 3, root=11, shards=5),
        )

    def test_generic_path_chunking_invariance(self):
        scheme = DoubleHashingChoices(97, D)  # non-pow2: generic path
        assert not fused_parallel_supported(scheme, "random")
        whole = run_parallel_trials(scheme, 200, 4, root=3)
        totals = (whole * np.arange(whole.shape[1])).sum(axis=1)
        assert (totals == 200).all()
        tail = run_parallel_trials(scheme, 200, 2, root=3, trial_offset=2)
        width = max(whole.shape[1], tail.shape[1])

        def pad(a):
            return np.pad(a, ((0, 0), (0, width - a.shape[1])))

        assert np.array_equal(pad(whole)[2:], pad(tail))

    def test_generic_path_matches_per_trial_simulate_batch(self):
        scheme = DoubleHashingChoices(97, D)
        got = run_parallel_trials(scheme, 200, 2, root=13)
        for i in range(2):
            ss = np.random.SeedSequence(entropy=13, spawn_key=(i,))
            batch = simulate_batch(
                scheme, 200, 1, seed=np.random.default_rng(ss)
            )
            expected = np.bincount(batch.loads[0])
            assert np.array_equal(got[i, : expected.size], expected)


class TestFusedDecision:
    def test_pure_geometry_predicate(self):
        assert fused_parallel_supported(DoubleHashingChoices(256, 3), "random")
        # Non power of two, left ties, tie-key overflow, other scheme:
        # each independently forces the generic path.
        assert not fused_parallel_supported(
            DoubleHashingChoices(100, 3), "random"
        )
        assert not fused_parallel_supported(DoubleHashingChoices(256, 3), "left")
        assert not fused_parallel_supported(DoubleHashingChoices(256, 7), "random")
        assert not fused_parallel_supported(FullyRandomChoices(256, 3), "random")

    def test_backend_does_not_change_results(self):
        # Explicit numpy vs default resolution must agree bit for bit.
        scheme = DoubleHashingChoices(N, D)
        assert np.array_equal(
            run_parallel_trials(scheme, M, 3, root=21, backend="numpy"),
            run_parallel_trials(scheme, M, 3, root=21),
        )


class TestShardHelpers:
    def test_default_shards_thresholds(self):
        assert default_shards(1 << 20, 3) == 1
        assert default_shards(1 << 23, 3) == 3
        assert default_shards(1 << 27, 3) == 48

    def test_sharded_histogram_matches_bincount(self):
        rng = np.random.default_rng(0)
        loads = rng.integers(0, 7, size=1000)
        expected = np.bincount(loads)
        for shards in (1, 3, 16, 1000, 5000):
            assert np.array_equal(_sharded_histogram(loads, shards), expected)


class TestValidation:
    def test_rejects_bad_arguments(self):
        scheme = DoubleHashingChoices(N, D)
        with pytest.raises(ConfigurationError):
            run_parallel_trials(scheme, M, 0, root=1)
        with pytest.raises(ConfigurationError):
            run_parallel_trials(scheme, -1, 1, root=1)
        with pytest.raises(ConfigurationError):
            run_parallel_trials(scheme, M, 1, root=1, trial_offset=-1)
        with pytest.raises(ConfigurationError):
            run_parallel_trials(scheme, M, 1, root=1, shards=0)
        with pytest.raises(ConfigurationError):
            run_parallel_trials(scheme, M, 1, root=1, tie_break="lowest")


class TestRunnerIntegration:
    def test_run_experiment_parallel_mode_matches_direct(self):
        spec = ExperimentSpec(
            n=N, d=D, n_balls=M, trials=8, seed=42, trials_mode="parallel"
        )
        res = run_experiment(DoubleHashingChoices(N, D), spec)
        direct = run_parallel_trials(DoubleHashingChoices(N, D), M, 8, root=42)
        assert np.array_equal(res.distribution.counts, direct.sum(axis=0))

    def test_chunk_count_does_not_change_results(self):
        base = ExperimentSpec(
            n=N, d=D, n_balls=M, trials=8, seed=42, trials_mode="parallel"
        )
        one = run_experiment(DoubleHashingChoices(N, D), base)
        many = run_experiment(DoubleHashingChoices(N, D), base.replace(chunks=3))
        assert np.array_equal(
            one.distribution.counts, many.distribution.counts
        )
        assert np.array_equal(
            one.distribution.max_load_per_trial,
            many.distribution.max_load_per_trial,
        )
