"""repro — a reproduction of *Balanced Allocations and Double Hashing*
(Michael Mitzenmacher, SPAA 2014).

The library implements the paper's full experimental and analytical
apparatus:

- choice-generation schemes (fully random vs. double hashing, plain and
  d-left partitioned) — :mod:`repro.hashing`;
- balanced-allocation simulation engines (reference and vectorized
  multi-trial) — :mod:`repro.core`;
- fluid-limit differential equations and closed forms — :mod:`repro.fluid`;
- the supermarket queueing model — :mod:`repro.queueing`;
- the paper's proof machinery made executable (majorization coupling,
  witness trees, ancestry lists, layered induction, statistical
  indistinguishability) — :mod:`repro.analysis`;
- neighbouring structures the paper motivates (Bloom filters, cuckoo
  hashing, open addressing with double hashing) — :mod:`repro.extensions`;
- one harness function per paper table — :mod:`repro.experiments`.

Execution is handled by a chunked engine (:mod:`repro.parallel.engine`)
that fails fast and resumes from a checkpoint, with a metrics/tracing
layer (:mod:`repro.metrics`); runs are described by one frozen
:class:`~repro.experiments.config.ExperimentSpec` shared between the
library API and the CLI.

Quickstart
----------
>>> from repro import DoubleHashingChoices, FullyRandomChoices
>>> from repro import ExperimentSpec, run_experiment
>>> spec = ExperimentSpec(n=2**10, d=3, trials=20, seed=1)
>>> double = run_experiment(DoubleHashingChoices(spec.n, spec.d), spec)
>>> random_ = run_experiment(FullyRandomChoices(spec.n, spec.d), spec.replace(seed=2))
>>> abs(double.distribution.fraction_at(0) - random_.distribution.fraction_at(0)) < 0.01
True
"""

from repro.core import (
    run_experiment,
    simulate_batch,
    simulate_dleft,
    simulate_one_choice,
    simulate_one_plus_beta,
    simulate_single_trial,
)
from repro.errors import (
    ConfigurationError,
    ReproError,
    SchemeError,
    SimulationError,
    StabilityError,
    TableFullError,
)
from repro.experiments.config import ExperimentSpec
from repro.hashing import (
    ChoiceScheme,
    DoubleHashingChoices,
    FullyRandomChoices,
    PartitionedDoubleHashing,
    PartitionedFullyRandom,
    make_scheme,
)
from repro.metrics import MetricsRegistry
from repro.parallel import ExecutionEngine
from repro.types import LevelStats, LoadDistribution, QueueingResult, TrialBatchResult

__version__ = "1.0.0"

__all__ = [
    "ChoiceScheme",
    "ConfigurationError",
    "DoubleHashingChoices",
    "ExecutionEngine",
    "ExperimentSpec",
    "FullyRandomChoices",
    "LevelStats",
    "LoadDistribution",
    "MetricsRegistry",
    "PartitionedDoubleHashing",
    "PartitionedFullyRandom",
    "QueueingResult",
    "ReproError",
    "SchemeError",
    "SimulationError",
    "StabilityError",
    "TableFullError",
    "TrialBatchResult",
    "__version__",
    "make_scheme",
    "run_experiment",
    "simulate_batch",
    "simulate_dleft",
    "simulate_one_choice",
    "simulate_one_plus_beta",
    "simulate_single_trial",
]
