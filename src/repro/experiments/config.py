"""Experiment configuration: the unified spec and the per-table defaults.

:class:`ExperimentSpec` is the single, frozen description of an
experiment run (geometry + trials + seed + backend + workers +
checkpoint).  ``run_experiment``, every ``table*`` function, and the CLI
all consume one; ``TABLE_DEFAULTS`` holds the per-table default spec that
both the programmatic defaults and the CLI subcommand defaults derive
from, so the two paths cannot drift.  The paper's published values live
in the paper-anchor registry (:mod:`repro.certify.anchors`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import ClassVar

from repro.errors import ConfigurationError
from repro.kernels import KNOWN_BACKENDS

__all__ = ["ExperimentSpec", "TABLE_DEFAULTS"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Frozen description of one experiment run.

    The spec covers four concerns: geometry (``n``, ``d``, ``n_balls``,
    ``sim_time``/``burn_in`` for the queueing table), sampling
    (``trials``, ``seed``), execution (``backend``, ``workers``), and
    resumption (``checkpoint``).  Derive variants with :meth:`replace`.
    The numbers a run produces depend on every field except ``workers``
    and ``checkpoint``.

    Attributes
    ----------
    n:
        Number of bins (and balls, unless ``n_balls`` overrides).
    d:
        Choices per ball.
    n_balls:
        Balls thrown; ``None`` means ``n`` (heavy-load runs set ``m > n``).
    trials:
        Independent trials (paper scale: 10000).
    seed:
        Non-negative integer root seed; each chunk's stream is spawned
        deterministically from it (the chunks are
        :func:`repro.parallel.chunk_sizes` of the trials and bins).
        ``None`` draws fresh OS entropy (not reproducible).
    backend:
        Kernel backend (``"numpy"``); ``None`` defers to the
        ``REPRO_BACKEND`` environment variable, then ``"numpy"``.
        Worker processes inherit the choice.
    workers:
        Process count; 1 runs in-process (still chunked).  It only
        schedules the chunks, so it never changes a result.
    checkpoint:
        JSONL checkpoint path: rerunning a failed or interrupted sweep
        with it, at any worker count, resumes from the chunks already
        done.
    sim_time, burn_in:
        Queueing-simulation horizon (Table 8), finite numbers;
        ``burn_in`` defaults to ``sim_time / 5`` when ``None``.
    """

    n: int = 2**12
    d: int = 3
    n_balls: int | None = None
    trials: int = 50
    seed: int | None = 1
    backend: str | None = None
    workers: int = 1
    checkpoint: str | None = None
    sim_time: float = 300.0
    burn_in: float | None = None

    # Not a field: e2ebench/workloads.py (the table1 run context) reads it.
    trials_mode: ClassVar[str] = "chunked"

    def __post_init__(self) -> None:
        for name in ("n", "d", "n_balls", "trials", "seed", "workers"):
            value = getattr(self, name)
            if name in ("n_balls", "seed") and value is None:
                continue
            # bool is an Integral too; numpy integers count as integers.
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        for name in ("sim_time", "burn_in"):
            value = getattr(self, name)
            if name == "burn_in" and value is None:
                continue
            if (
                isinstance(value, bool)
                or not isinstance(value, Real)
                or not math.isfinite(value)
            ):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        if self.n < 1:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if self.d < 1:
            raise ConfigurationError(f"d must be positive, got {self.d}")
        if self.n_balls is not None and self.n_balls < 1:
            raise ConfigurationError(
                f"n_balls must be positive, got {self.n_balls}"
            )
        if self.trials < 0:
            raise ConfigurationError(
                f"trials must be non-negative, got {self.trials}"
            )
        if self.seed is not None and self.seed < 0:
            raise ConfigurationError(
                f"seed must be non-negative, got {self.seed}"
            )
        if self.backend is not None and self.backend not in KNOWN_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {KNOWN_BACKENDS} or None, "
                f"got {self.backend!r}"
            )
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be non-negative, got {self.workers}"
            )

    @property
    def balls(self) -> int:
        """Balls thrown: ``n_balls`` when set, else ``n``."""
        return self.n_balls if self.n_balls is not None else self.n

    @property
    def effective_burn_in(self) -> float:
        """Queueing burn-in: ``burn_in`` when set, else ``sim_time / 5``."""
        return self.burn_in if self.burn_in is not None else self.sim_time / 5

    def replace(self, **changes) -> "ExperimentSpec":
        """A copy of this spec with the given fields replaced."""
        return dataclasses.replace(self, **changes)


# Per-table default specs.  These are the single source of truth for both
# the ``table*`` function defaults and the CLI subcommand defaults; the
# seeds and scales mirror the historical per-function defaults.
TABLE_DEFAULTS: dict[str, ExperimentSpec] = {
    "table1": ExperimentSpec(n=2**14, d=3, trials=100, seed=1),
    "table2": ExperimentSpec(n=2**14, d=3, trials=100, seed=2),
    "table3": ExperimentSpec(n=2**16, d=3, trials=50, seed=3),
    "table4": ExperimentSpec(d=3, trials=200, seed=4),
    "table5": ExperimentSpec(n=2**18, d=4, trials=30, seed=5),
    "table6": ExperimentSpec(n=2**14, d=3, trials=50, seed=6),
    "table7": ExperimentSpec(n=2**14, d=4, trials=100, seed=7),
    "table8": ExperimentSpec(n=2**10, d=3, seed=8, sim_time=1000.0),
}
