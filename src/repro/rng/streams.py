"""Deterministic independent random streams for parallel trials.

Per the HPC guides, the library vectorizes inside a process and parallelizes
across processes.  Each worker needs its own statistically independent
generator, reproducible from a single root seed.  numpy's ``SeedSequence``
spawning provides exactly this; these helpers wrap it so every entry point in
the library takes a plain ``seed`` int (or an existing ``Generator``) and the
fan-out logic lives in one place.
"""

from __future__ import annotations

import numpy as np

from repro.rng.adapter import GeneratorAdapter

__all__ = ["default_generator", "spawn_seeds"]


def default_generator(
    seed: int
    | np.random.Generator
    | GeneratorAdapter
    | np.random.SeedSequence
    | None = None,
) -> np.random.Generator:
    """Coerce ``seed`` into a numpy ``Generator`` (or compatible adapter).

    Accepts ``None`` (fresh OS entropy), an integer seed, a ``SeedSequence``,
    an existing ``Generator``, or a :class:`~repro.rng.adapter.GeneratorAdapter`
    wrapping one of the pure-Python bit generators — the latter two are
    returned unchanged so callers can thread one stream through a pipeline.
    """
    if isinstance(seed, (np.random.Generator, GeneratorAdapter)):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(seed: int | None, count: int) -> list[np.random.SeedSequence]:
    """Spawn ``count`` independent child seed sequences from a root seed.

    The children are deterministic given ``seed`` and mutually independent,
    making multi-process runs reproducible regardless of scheduling order.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = np.random.SeedSequence(seed)
    return root.spawn(count)
