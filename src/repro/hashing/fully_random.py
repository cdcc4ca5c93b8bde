"""Fully random choices — the paper's baseline scheme.

Each ball receives ``d`` independent uniform bin choices.  The paper's main
experiments use choices *without replacement* (footnote 7: "We first consider
n balls and bins using d choices without replacement"); with-replacement is
provided for the ablation bench, since the paper notes the difference only
shows for very small ``n``.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import ChoiceScheme

__all__ = ["FullyRandomChoices"]


class FullyRandomChoices(ChoiceScheme):
    """``d`` independent uniform choices per ball.

    Parameters
    ----------
    n_bins, d:
        Table geometry (see :class:`~repro.hashing.base.ChoiceScheme`).
    replacement:
        If False (default, matching the paper's experiments), the ``d``
        choices within a ball are distinct, produced by rejection
        resampling: draw all rows i.i.d., then re-draw only rows containing
        a duplicate.  For ``d`` small relative to ``n`` the expected number
        of rounds is ``1 + O(d^2 / n)``.
    """

    def __init__(self, n_bins: int, d: int, *, replacement: bool = False) -> None:
        super().__init__(n_bins, d)
        self.replacement = bool(replacement)

    @property
    def distinct(self) -> bool:
        """True only in without-replacement mode (duplicates rejected)."""
        return not self.replacement

    def batch(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform ``(trials, d)`` rows, rejection-resampled if distinct."""
        choices = rng.integers(0, self.n_bins, size=(trials, self.d), dtype=np.int64)
        if self.replacement or self.d == 1:
            return choices
        bad = self._rows_with_duplicates(choices)
        # Rejection loop: geometric tail, so this terminates fast even for
        # adversarial geometry (d close to n_bins degrades gracefully).
        while bad.size:
            choices[bad] = rng.integers(
                0, self.n_bins, size=(bad.size, self.d), dtype=np.int64
            )
            bad = bad[self._rows_with_duplicates(choices[bad])]
        return choices

    @staticmethod
    def _rows_with_duplicates(choices: np.ndarray) -> np.ndarray:
        """Indices of rows containing a repeated bin.

        One vectorized equality test per column pair, OR-ed together.
        The ``d(d-1)/2`` compares beat sorting each row up to ``d = 6``
        and lose from ``d = 8`` (see ``docs/performance.md``); the
        paper's tables use ``d <= 4``.
        """
        d = choices.shape[1]
        dup = np.zeros(choices.shape[0], dtype=bool)
        for i in range(d):
            for j in range(i + 1, d):
                dup |= choices[:, i] == choices[:, j]
        return np.flatnonzero(dup)

    def describe(self) -> str:
        """Short human-readable label including mode and geometry."""
        mode = "with" if self.replacement else "without"
        return (
            f"fully-random({mode} replacement, n_bins={self.n_bins}, d={self.d})"
        )
