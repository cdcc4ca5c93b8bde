"""The ``ChoiceScheme`` interface shared by all choice generators.

Design notes
------------
The vectorized engine in :mod:`repro.core.vectorized` simulates many trials
in lock-step: at each ball step it needs one row of ``d`` bin choices *per
trial*.  Schemes therefore expose a batched :meth:`ChoiceScheme.batch` that
returns a ``(trials, d)`` integer array in one numpy call — this is the
single hottest allocation in the library, so no per-ball Python object churn
is permitted on this path.

Schemes are stateless with respect to the ball sequence (each ball draws
fresh hash values), so the same scheme object can be shared across engines
and benchmark repetitions; all randomness comes from the ``rng`` argument.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ChoiceScheme"]


class ChoiceScheme(abc.ABC):
    """Generates the ``d`` candidate bins for each ball.

    Parameters
    ----------
    n_bins:
        Number of bins (table size), at least 1.
    d:
        Number of choices per ball, at least 1.
    """

    def __init__(self, n_bins: int, d: int) -> None:
        if n_bins < 1:
            raise ConfigurationError(f"n_bins must be positive, got {n_bins}")
        if d < 1:
            raise ConfigurationError(f"d must be positive, got {d}")
        if d > n_bins:
            raise ConfigurationError(
                f"cannot make {d} distinct choices from {n_bins} bins"
            )
        self.n_bins = int(n_bins)
        self.d = int(d)

    @abc.abstractmethod
    def batch(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Return a ``(trials, d)`` int64 array of bin indices in [0, n_bins).

        Row ``t`` holds the choices for the next ball of trial ``t``.  Rows
        are mutually independent; the distribution within a row is the
        scheme's defining property.
        """

    def single(self, rng: np.random.Generator) -> np.ndarray:
        """Choices for one ball of one trial, as a length-``d`` array."""
        return self.batch(1, rng)[0]

    def batch_planar(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Like :meth:`batch` but transposed: a ``(d, trials)`` array.

        Plane ``k`` holds the ``k``-th choice of every ball.  The default
        returns the transposed *view* of :meth:`batch` (not contiguous):
        the kernel layer (:mod:`repro.kernels`) copies the planes into its
        packed buffer anyway, so a contiguous copy here would be wasted.
        Schemes with a natural per-plane recurrence (double hashing's
        constant stride) override it to skip the transpose and the modulo.
        """
        return self.batch(trials, rng).T

    @property
    def distinct(self) -> bool:
        """Whether the ``d`` choices within a row are guaranteed distinct.

        Subclasses override; the default is conservative.
        """
        return False

    def describe(self) -> str:
        """Human-readable one-line description used in reports."""
        return f"{type(self).__name__}(n_bins={self.n_bins}, d={self.d})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
