"""Trial-partition helpers for the execution engine.

The work unit is "run ``k`` trials and return a compact summary";
:class:`~repro.parallel.engine.ExecutionEngine` fans those chunks out.
This module holds the pure helpers that size the fan-out:
:func:`partition_trials` splits trials evenly, and :func:`chunk_sizes`
fixes a run's chunks from the run alone.
"""

from __future__ import annotations

__all__ = ["CHUNK_CELLS", "chunk_sizes", "partition_trials"]

#: Load cells (trials × bins) one chunk may hold: an int32 load table of
#: at most 64 MiB per chunk.
CHUNK_CELLS = 1 << 24


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
