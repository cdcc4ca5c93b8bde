"""Lemmas 6 and 7: ancestry lists, their size, and their disjointness.

The *ancestry list* of bin ``b`` at time ``t`` (paper, proof of Lemma 5) is
built by following the allocation history backwards: start with the balls
that chose ``b`` before ``t``; for each such ball, recursively add the balls
that chose any of its other ``d − 1`` bins before that ball's own time, and
so on.  The bins encountered form the list; it contains all information
needed to determine ``b``'s load at ``t``.

The paper shows (Lemma 6) every ancestry list has ``O(log n)`` bins w.h.p.
(by domination with a branching process), and (Lemma 7) the ancestry lists
of a fresh ball's ``d`` choices are pairwise disjoint with probability
``1 − O(d² log² n / n)`` — the source of asymptotic independence and hence
of the shared fluid limit.

This module records an allocation history, constructs exact ancestry lists
from it, and measures both quantities so the lemmas can be checked
empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.base import ChoiceScheme
from repro.kernels.reference import place_ball
from repro.rng import default_generator

__all__ = [
    "AllocationHistory",
    "record_history",
    "ancestry_bins",
    "ancestry_sizes_of_fresh_choices",
    "disjointness_rate",
]


@dataclass(frozen=True)
class AllocationHistory:
    """A recorded allocation run.

    Attributes
    ----------
    n_bins:
        Table size.
    choices:
        ``(n_balls, d)`` array; row ``j`` holds ball ``j``'s choices
        (ball times are row indices, earlier = smaller).
    placements:
        Bin that received each ball.
    """

    n_bins: int
    choices: np.ndarray
    placements: np.ndarray

    @property
    def n_balls(self) -> int:
        return self.choices.shape[0]


def record_history(
    scheme: ChoiceScheme,
    n_balls: int,
    *,
    seed: int | np.random.Generator | None = None,
) -> AllocationHistory:
    """Run one trial, recording every ball's choices and placement."""
    if n_balls < 0:
        raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")
    rng = default_generator(seed)
    loads = np.zeros(scheme.n_bins, dtype=np.int64)
    all_choices = np.empty((n_balls, scheme.d), dtype=np.int64)
    placements = np.empty(n_balls, dtype=np.int64)
    for j in range(n_balls):
        choices = scheme.single(rng)
        all_choices[j] = choices
        placements[j] = place_ball(loads, choices, rng)
    return AllocationHistory(
        n_bins=scheme.n_bins, choices=all_choices, placements=placements
    )


def _balls_by_bin(history: AllocationHistory) -> list[list[int]]:
    """Index: for each bin, the (ascending) ball times that chose it."""
    index: list[list[int]] = [[] for _ in range(history.n_bins)]
    for j in range(history.n_balls):
        for b in history.choices[j]:
            index[int(b)].append(j)
    return index


def ancestry_bins(
    history: AllocationHistory,
    bin_id: int,
    time: int,
    *,
    index: list[list[int]] | None = None,
    max_bins: int | None = None,
) -> set[int]:
    """The set of bins in the ancestry list of ``bin_id`` at ``time``.

    ``time`` is exclusive: balls with index < ``time`` are history.  The
    traversal is exact (iterative worklist over (bin, time-bound) states,
    deduplicated per bin with the loosest bound seen); ``max_bins`` caps
    work for pathological inputs, raising if exceeded.
    """
    if not 0 <= bin_id < history.n_bins:
        raise ConfigurationError(f"bin_id {bin_id} out of range")
    if index is None:
        index = _balls_by_bin(history)
    # best_bound[b] = largest time bound already explored for bin b; a bin
    # revisited with a smaller bound contributes nothing new.
    best_bound: dict[int, int] = {}
    result = {bin_id}
    stack: list[tuple[int, int]] = [(bin_id, time)]
    while stack:
        b, bound = stack.pop()
        seen = best_bound.get(b, -1)
        if bound <= seen:
            continue
        best_bound[b] = bound
        for j in index[b]:
            if j >= bound:
                break
            # Skip balls already fully covered by the previous exploration
            # of this bin (their recursion was already enqueued).
            if j < seen:
                continue
            for other in history.choices[j]:
                other = int(other)
                result.add(other)
                if max_bins is not None and len(result) > max_bins:
                    raise RuntimeError(
                        f"ancestry of bin {bin_id} exceeded {max_bins} bins"
                    )
                if other != b:
                    stack.append((other, j))
    return result


def ancestry_sizes_of_fresh_choices(
    history: AllocationHistory,
    fresh_choices: np.ndarray,
    *,
    time: int | None = None,
) -> list[int]:
    """Sizes of the ancestry lists of a fresh ball's ``d`` choices."""
    index = _balls_by_bin(history)
    t = history.n_balls if time is None else time
    return [
        len(ancestry_bins(history, int(b), t, index=index))
        for b in fresh_choices
    ]


def disjointness_rate(
    history: AllocationHistory,
    scheme: ChoiceScheme,
    samples: int,
    *,
    seed: int | np.random.Generator | None = None,
) -> float:
    """Fraction of fresh balls whose d ancestry lists are pairwise disjoint.

    Lemma 7 predicts this tends to 1 at rate ``1 − O(d² log² n / n)``.
    """
    rng = default_generator(seed)
    index = _balls_by_bin(history)
    t = history.n_balls
    disjoint = 0
    for _ in range(samples):
        choices = scheme.single(rng)
        lists = [
            ancestry_bins(history, int(b), t, index=index) for b in choices
        ]
        union_size = len(set().union(*lists))
        if union_size == sum(len(s) for s in lists):
            disjoint += 1
    return disjoint / samples if samples else float("nan")
