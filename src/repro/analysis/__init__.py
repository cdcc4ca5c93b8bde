"""Executable versions of the paper's proof machinery.

Each module turns one of the paper's arguments into code that can be run,
measured, and tested:

- :mod:`repro.analysis.majorization` — Theorem 2's coupling: double hashing
  with ``d > 2`` choices is stochastically majorized by two fully-random
  choices.  The coupled simulation checks the majorization invariant at
  every step.
- :mod:`repro.analysis.witness_tree` — Theorem 4's bound
  ``log log n / log d + O(d)`` and its activation-probability ingredients.
- :mod:`repro.analysis.layered_induction` — Theorem 10 / Appendix B's
  ``β_i`` recursion and the resulting ``log log n / log d + O(1)`` bound.
- :mod:`repro.analysis.ancestry` — Lemma 6/7: ancestry-list construction
  from a recorded allocation history, size measurement (O(log n)) and
  disjointness of the d choices' lists.
- :mod:`repro.analysis.branching` — the Galton–Watson process that
  dominates ancestry growth, with the Karp–Zhang exponential tail.
- :mod:`repro.analysis.comparison` — the statistical meaning of
  "essentially indistinguishable": chi-square tests, per-level deviations
  in standard errors, and total-variation distances between load
  distributions.
"""

from repro.analysis.branching import (
    expected_population,
    simulate_branching_population,
)
from repro.analysis.comparison import (
    ComparisonReport,
    HolmResult,
    chi_square_comparison,
    compare_distributions,
    cramers_v,
    holm_correction,
    total_variation,
)
from repro.analysis.dleft_bound import (
    dleft_max_load_bound,
    phi_d,
    symmetric_max_load_coefficient,
)
from repro.analysis.layered_induction import (
    beta_trajectory,
    layered_induction_bound,
)
from repro.analysis.majorization import (
    coupled_majorization_run,
    majorizes,
)
from repro.analysis.max_load_stats import (
    MaxLoadComparison,
    bootstrap_mean_ci,
    compare_max_loads,
)
from repro.analysis.witness_extraction import (
    WitnessTree,
    extract_witness_tree,
)
from repro.analysis.witness_tree import (
    leaf_activation_bound,
    pair_collision_bound,
    witness_tree_bound,
)

__all__ = [
    "ComparisonReport",
    "HolmResult",
    "MaxLoadComparison",
    "WitnessTree",
    "beta_trajectory",
    "bootstrap_mean_ci",
    "chi_square_comparison",
    "compare_distributions",
    "compare_max_loads",
    "coupled_majorization_run",
    "cramers_v",
    "dleft_max_load_bound",
    "expected_population",
    "extract_witness_tree",
    "holm_correction",
    "layered_induction_bound",
    "leaf_activation_bound",
    "majorizes",
    "pair_collision_bound",
    "phi_d",
    "simulate_branching_population",
    "symmetric_max_load_coefficient",
    "total_variation",
    "witness_tree_bound",
]
