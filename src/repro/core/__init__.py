"""Balanced-allocation simulation engines.

Two implementations of the same process, cross-validated against each other
in the test suite:

- :func:`~repro.kernels.reference.simulate_single_trial` — a readable,
  single-trial reference engine in pure Python, re-exported here from
  :mod:`repro.kernels.reference`.  This is the executable specification.
- :mod:`repro.core.vectorized` — the production engine.  It simulates many
  independent trials in lock-step: bin loads live in a ``(trials, n_bins)``
  array and each ball step is a handful of numpy operations over all trials
  at once (gather loads, argmin with the configured tie-breaking, scatter
  increment).  This turns the inherently sequential ball loop into *m* numpy
  steps amortized over every trial, per the HPC guides' vectorization advice.

On top of these:

- :mod:`repro.core.dleft` — Vöcking's d-left scheme (ties to the left);
- :mod:`repro.core.one_choice` — the classical one-choice baseline;
- :mod:`repro.core.one_plus_beta` — the (1+β)-choice process of
  Peres–Talwar–Wieder (related work the paper cites);
- :mod:`repro.core.runner` — trial orchestration, chunking, and optional
  multiprocessing fan-out; a run keeps its ``(trials, max_load + 1)``
  per-trial histogram matrix, from which :mod:`repro.types` computes the
  load distribution and Table 5's per-level statistics.
"""

from repro.core.churn import simulate_churn
from repro.core.dleft import simulate_dleft
from repro.core.trajectory import simulate_trajectory
from repro.core.weighted import simulate_weighted
from repro.core.one_choice import simulate_one_choice
from repro.core.one_plus_beta import simulate_one_plus_beta
from repro.core.runner import run_experiment
from repro.core.vectorized import simulate_batch
from repro.kernels.reference import simulate_single_trial

__all__ = [
    "run_experiment",
    "simulate_batch",
    "simulate_churn",
    "simulate_dleft",
    "simulate_one_choice",
    "simulate_one_plus_beta",
    "simulate_single_trial",
    "simulate_trajectory",
    "simulate_weighted",
]
