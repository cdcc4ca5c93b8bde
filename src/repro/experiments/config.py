"""Experiment configuration: the unified spec and the paper's values.

Two things live here:

- :class:`ExperimentSpec` — the single, frozen description of an
  experiment run (geometry + trials + seed + workers + engine policy).
  ``run_experiment``, every ``table*`` function, and the CLI all consume
  one; ``TABLE_DEFAULTS`` holds the per-table default spec that both the
  programmatic defaults and the CLI subcommand defaults derive from, so
  the two paths cannot drift.
- ``PAPER_VALUES`` — every published number this reproduction targets,
  keyed by table, attached to outputs for side-by-side reporting.  Since
  the certification subsystem landed this is a *view* of the
  paper-anchor registry (:mod:`repro.certify.anchors`), which owns the
  one and only transcription of the paper's tables.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.certify.anchors import paper_values as _paper_values
from repro.errors import ConfigurationError
from repro.hashing.registry import make_scheme, scheme_names
from repro.kernels import DEFAULT_BLOCK, KNOWN_BACKENDS
from repro.parallel.engine import EngineConfig

__all__ = ["ExperimentSpec", "PAPER_VALUES", "TABLE_DEFAULTS"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Frozen description of one experiment run.

    The spec covers four concerns: geometry (``n``, ``d``, ``n_balls``,
    ``log2_n``, ``sim_time``/``burn_in`` for the queueing table),
    sampling (``trials``, ``seed``), execution (``workers``, ``chunks``,
    ``tie_break``, ``block``, ``backend``), and engine policy (``max_retries``,
    ``retry_backoff``, ``chunk_timeout``, ``checkpoint``,
    ``metrics_out``).  Derive variants with :meth:`replace`.

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
        Root seed; chunk streams are spawned deterministically from it.
        ``None`` draws fresh OS entropy (not reproducible).
    tie_break:
        ``"random"`` (standard) or ``"left"`` (Vöcking).
    block:
        Ball-steps per generation/kernel superblock inside the vectorized
        engine.  The default is the sweep-derived
        :data:`repro.kernels.DEFAULT_BLOCK` (see ``docs/performance.md``).
    backend:
        Kernel backend (``"numpy"``); ``None`` defers to the
        ``REPRO_BACKEND`` environment variable, then ``"numpy"``.
        Worker processes inherit the choice.
    scheme:
        Choice-scheme registry name (see
        :func:`repro.hashing.scheme_names`); ``None`` defers to the
        ``REPRO_SCHEME`` environment variable, then ``"double"``.
        Consumed by scheme-agnostic entry points (``compare``,
        ``serve``); the ``table*`` functions fix their own schemes per
        the paper.  Build the instance with :meth:`build_scheme`.
    workers:
        Process count; 1 runs in-process (still chunked).
    chunks:
        Chunk-count override (``None``: engine default).
    trials_mode:
        ``"chunked"`` (default) runs trials lock-step per chunk on one
        shared generator; ``"parallel"`` gives every trial an
        independent counter-based stream
        (:mod:`repro.kernels.parallel_trials`) so trials can run in any
        interleaving, with results independent of chunking and host
        (*seed-equivalence*).
    shards:
        Aggregation-shard count for ``trials_mode="parallel"``; ``None``
        sizes automatically (see
        :func:`repro.kernels.default_shards` and ``docs/scale.md``).
    max_retries, retry_backoff, chunk_timeout:
        Fault-tolerance policy, see
        :class:`~repro.parallel.engine.EngineConfig`.
    checkpoint:
        JSONL checkpoint path enabling resume of interrupted sweeps.
    metrics_out:
        Path for a metrics-snapshot JSON written after the run.
    log2_n:
        Table-size exponent for sweeps keyed by power of two (Table 3).
    sim_time, burn_in:
        Queueing-simulation horizon (Table 8); ``burn_in`` defaults to
        ``sim_time / 5`` when ``None``.
    """

    n: int = 2**12
    d: int = 3
    n_balls: int | None = None
    trials: int = 50
    seed: int | None = 1
    tie_break: str = "random"
    block: int = DEFAULT_BLOCK
    backend: str | None = None
    scheme: str | None = None
    workers: int = 1
    chunks: int | None = None
    trials_mode: str = "chunked"
    shards: int | None = None
    max_retries: int = 2
    retry_backoff: float = 0.25
    chunk_timeout: float | None = None
    checkpoint: str | None = None
    metrics_out: str | None = None
    log2_n: int = 14
    sim_time: float = 300.0
    burn_in: float | None = None

    def __post_init__(self) -> None:
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
        if self.tie_break not in ("random", "left"):
            raise ConfigurationError(
                f"tie_break must be 'random' or 'left', got {self.tie_break!r}"
            )
        if self.block < 1:
            raise ConfigurationError(f"block must be positive, got {self.block}")
        if self.backend is not None and self.backend not in KNOWN_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {KNOWN_BACKENDS} or None, "
                f"got {self.backend!r}"
            )
        if self.scheme is not None and self.scheme not in scheme_names():
            raise ConfigurationError(
                f"scheme must be one of {scheme_names()} or None, "
                f"got {self.scheme!r}"
            )
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be non-negative, got {self.workers}"
            )
        if self.trials_mode not in ("chunked", "parallel"):
            raise ConfigurationError(
                "trials_mode must be 'chunked' or 'parallel', "
                f"got {self.trials_mode!r}"
            )
        if self.shards is not None and self.shards < 1:
            raise ConfigurationError(
                f"shards must be positive, got {self.shards}"
            )
        # Engine-policy fields share EngineConfig's validation.
        self.engine_config()

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

    def build_scheme(self, *, rng=None, seed: int | None = None):
        """Instantiate the spec's choice scheme from the unified registry.

        Resolution is explicit > ``REPRO_SCHEME`` env > ``"double"``
        (see :func:`repro.hashing.resolve_scheme_name`); geometry comes
        from ``self.n`` / ``self.d``.
        """
        return make_scheme(self.scheme, self.n, self.d, rng=rng, seed=seed)

    def engine_config(self) -> EngineConfig:
        """The execution-engine policy encoded by this spec."""
        return EngineConfig(
            workers=self.workers,
            chunks=self.chunks,
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
            chunk_timeout=self.chunk_timeout,
            checkpoint_path=self.checkpoint,
        )


# Per-table default specs.  These are the single source of truth for both
# the ``table*`` function defaults and the CLI subcommand defaults; the
# seeds and scales mirror the historical per-function defaults.
TABLE_DEFAULTS: dict[str, ExperimentSpec] = {
    "table1": ExperimentSpec(n=2**14, d=3, trials=100, seed=1),
    "table2": ExperimentSpec(n=2**14, d=3, trials=100, seed=2),
    "table3": ExperimentSpec(n=2**16, d=3, log2_n=16, trials=50, seed=3),
    "table4": ExperimentSpec(d=3, trials=200, seed=4),
    "table5": ExperimentSpec(n=2**18, d=4, trials=30, seed=5),
    "table6": ExperimentSpec(n=2**14, d=3, trials=50, seed=6),
    "table7": ExperimentSpec(n=2**14, d=4, trials=100, seed=7),
    "table8": ExperimentSpec(n=2**10, d=3, seed=8, sim_time=1000.0, burn_in=100.0),
}


# Published numbers, in the historical nested-dict shape.  The actual
# transcription lives in the paper-anchor registry
# (repro.certify.anchors) — the single place paper values are typed in;
# this view is rebuilt from it so existing consumers keep working.
PAPER_VALUES: dict[str, dict] = _paper_values()
