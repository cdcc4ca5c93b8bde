"""Bench: the process variants beyond the paper's tables.

Covers the engines that extend the paper's question — churn (deletions,
§2.2), weighted balls ([36]), the (1+β) process ([36]), and the one-choice
baseline — each timed and checked for its defining qualitative claim.
"""

from __future__ import annotations

import pytest

from repro.core import (
    simulate_batch,
    simulate_churn,
    simulate_one_choice,
    simulate_one_plus_beta,
    simulate_weighted,
)
from repro.hashing import DoubleHashingChoices, FullyRandomChoices


def bench_churn(benchmark, scale, attach):
    """Deletions: double hashing stays balanced under heavy churn."""
    n = scale.n // 2

    def run():
        return simulate_churn(
            DoubleHashingChoices(n, 3), n, churn_steps=2 * n,
            trials=10, seed=scale.seed,
        )

    batch = benchmark.pedantic(run, rounds=1, iterations=1)
    assert (batch.loads.sum(axis=1) == n).all()
    assert batch.loads.max() <= 6
    attach(max_load=int(batch.loads.max()))


def bench_weighted(benchmark, scale, attach):
    """Weighted balls: double and random gaps agree."""
    n = scale.n // 2

    def run():
        a = simulate_weighted(
            FullyRandomChoices(n, 3), n, trials=20, seed=scale.seed
        )
        b = simulate_weighted(
            DoubleHashingChoices(n, 3), n, trials=20, seed=scale.seed + 1
        )
        return a, b

    a, b = benchmark.pedantic(run, rounds=1, iterations=1)
    assert a.gap_per_trial.mean() == pytest.approx(
        b.gap_per_trial.mean(), abs=1.0
    )
    attach(gap_random=round(float(a.gap_per_trial.mean()), 3),
           gap_double=round(float(b.gap_per_trial.mean()), 3))


def bench_one_plus_beta(benchmark, scale, attach):
    """(1+β): the >= 2 tail interpolates monotonically in β."""
    n = scale.n // 2

    def run():
        return [
            simulate_one_plus_beta(
                n, n, 15, beta=beta, seed=scale.seed + k
            ).distribution().tail_at(2)
            for k, beta in enumerate((0.0, 0.5, 1.0))
        ]

    tails = benchmark.pedantic(run, rounds=1, iterations=1)
    assert tails[0] > tails[1] > tails[2]
    attach(tails_by_beta=dict(zip(("0.0", "0.5", "1.0"),
                                  [round(t, 4) for t in tails])))


def bench_one_choice_baseline(benchmark, scale, attach):
    """One choice vs two: the power-of-two-choices headline gap."""

    def run():
        one = simulate_one_choice(scale.n, scale.n, 20, seed=scale.seed)
        two = simulate_batch(
            FullyRandomChoices(scale.n, 2), scale.n, 20, seed=scale.seed + 1
        )
        return one, two

    one, two = benchmark.pedantic(run, rounds=1, iterations=1)
    max_one = float(one.loads.max(axis=1).mean())
    max_two = float(two.loads.max(axis=1).mean())
    assert max_one > max_two + 1.0
    attach(mean_max_one_choice=round(max_one, 2),
           mean_max_two_choice=round(max_two, 2))
