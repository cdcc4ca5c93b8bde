"""Cross-engine equivalence: vectorized engine vs the scalar reference.

The vectorized engine's blocked RNG consumption differs from the scalar
reference loop, so equality is statistical: ``simulate_batch`` output must
be indistinguishable (chi-square + TV) from aggregated
:func:`simulate_single_trial` runs, for both fully random and double
hashing, both tie-break rules.  (Bit-level equality of the packed kernel
with sequential placement on the same draws lives in
``tests/kernels/test_exactness.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.comparison import compare_distributions
from repro.core import simulate_batch, simulate_single_trial
from repro.hashing import DoubleHashingChoices, FullyRandomChoices


def _reference_distribution(scheme_factory, n, n_balls, trials, seed, tie_break):
    dist = None
    for t in range(trials):
        one = simulate_single_trial(
            scheme_factory(), n_balls, seed=seed + t, tie_break=tie_break
        )
        dist = one if dist is None else dist.merged_with(one)
    return dist


class TestScalarReferenceEquivalence:
    """simulate_batch vs the scalar loop, statistically."""

    N, BALLS, TRIALS = 512, 512, 60

    @pytest.mark.parametrize(
        "make,tie_break",
        [
            (lambda: FullyRandomChoices(512, 3), "random"),
            (lambda: DoubleHashingChoices(512, 3), "random"),
            (lambda: DoubleHashingChoices(512, 2), "left"),
        ],
        ids=["random-d3", "double-d3", "double-d2-left"],
    )
    def test_indistinguishable_from_scalar_loop(self, make, tie_break):
        batch = simulate_batch(
            make(), self.BALLS, self.TRIALS, seed=100, tie_break=tie_break
        ).distribution()
        ref = _reference_distribution(
            make, self.N, self.BALLS, self.TRIALS, seed=5000, tie_break=tie_break
        )
        report = compare_distributions(batch, ref)
        assert report.indistinguishable, report

    def test_mean_max_load_matches_scalar_loop(self):
        """Max load is tie-break sensitive: a kernel bug that conserved
        totals but misplaced ties would move this statistic."""
        n, trials = 256, 80
        batch = simulate_batch(DoubleHashingChoices(n, 2), n, trials, seed=21)
        batch_max = batch.loads.max(axis=1).astype(float)
        ref_max = [
            simulate_single_trial(
                DoubleHashingChoices(n, 2), n, seed=7000 + t, return_loads=True
            ).max()
            for t in range(trials)
        ]
        # Means within 3 pooled standard errors.
        se = np.sqrt(
            (batch_max.var() + np.var(ref_max)) / trials
        )
        assert abs(batch_max.mean() - np.mean(ref_max)) < 3 * max(se, 1e-9)
