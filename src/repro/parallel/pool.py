"""Worker-count and trial-partition helpers for the execution engine.

The work unit is "run ``k`` trials and return a compact summary";
:class:`~repro.parallel.engine.ExecutionEngine` fans those chunks out.
This module holds the pure helpers that size the fan-out:
:func:`chunk_sizes` fixes a run's chunks from the run alone, and
:func:`default_workers` picks how many processes execute them.
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError

__all__ = ["CHUNK_CELLS", "chunk_sizes", "default_workers", "partition_trials"]

#: Load cells (trials × bins) one chunk may hold: an int32 load table of
#: at most 64 MiB per chunk.
CHUNK_CELLS = 1 << 24


def default_workers() -> int:
    """Default worker count.

    Honors the ``REPRO_WORKERS`` environment variable when set (any
    positive integer, no cap — explicit configuration wins).  Otherwise
    uses the process CPU count (``os.process_cpu_count`` on 3.13+, which
    respects affinity masks; ``os.cpu_count`` before that) capped at 8,
    where trial fan-out sees diminishing returns.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None and env.strip():
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
        if value < 1:
            raise ConfigurationError(f"REPRO_WORKERS must be >= 1, got {value}")
        return value
    count_cpus = getattr(os, "process_cpu_count", os.cpu_count)
    return min(count_cpus() or 1, 8)


def partition_trials(trials: int, chunks: int) -> list[int]:
    """Split ``trials`` into ``chunks`` near-equal positive parts.

    >>> partition_trials(10, 4)
    [3, 3, 2, 2]
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if chunks < 1:
        raise ValueError(f"chunks must be positive, got {chunks}")
    chunks = min(chunks, trials) or 1
    base, extra = divmod(trials, chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]


def chunk_sizes(trials: int, n_bins: int) -> list[int]:
    """The trial count of each chunk of a run, a function of the run alone.

    ``min(4, trials)`` chunks, split further only when a chunk would hold
    more than :data:`CHUNK_CELLS` load cells (at least one trial each).
    Every chunk draws from its own seed child, so the chunking fixes the
    numbers; the worker count only decides how many processes run them.

    >>> chunk_sizes(10, 2**14)
    [3, 3, 2, 2]
    >>> len(chunk_sizes(10_000, 2**18))
    157
    """
    per_chunk = max(1, CHUNK_CELLS // n_bins)
    return partition_trials(trials, max(min(4, trials), -(-trials // per_chunk)))
