"""Worker-count and trial-partition helpers for the execution engine.

The work unit is "run ``k`` trials and return a compact summary";
:class:`~repro.parallel.engine.ExecutionEngine` fans those chunks out.
This module holds the two pure helpers it sizes the fan-out with:
:func:`default_workers` and :func:`partition_trials`.
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError

__all__ = ["partition_trials", "default_workers"]


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
