"""Unified block-RNG substrate: the draw-stream contract of every kernel.

All kernel backends in this package consume randomness through the same
two mechanisms, defined here once:

1. **Lazily refilled draw blocks** over one ``numpy.random.Generator``.
   Cursors start exhausted; a block is refilled only when an event (or
   arrival) actually needs it, by exactly one canonical refill call:

   - *event blocks* (:func:`refill_event_block`):
     ``rng.exponential(1.0, EVENT_BLOCK)`` then ``rng.random(EVENT_BLOCK)``;
   - *choice blocks* (:func:`refill_choice_block`):
     ``scheme.batch(CHOICE_BLOCK, rng)`` then
     ``rng.integers(0, 2**TIE_BITS, (CHOICE_BLOCK, d), dtype=int64)``.
     Tie keys are drawn even when the tie rule ignores them, so the
     stream does not depend on the tie rule.

   Because refills are lazy and ordered, every backend that honors the
   contract consumes the generator identically and leaves it in the same
   final state — the bit-identity guarantee the cross-backend suites pin
   (``tests/kernels``).  :class:`BlockedDraws` is the plain cursor the
   reference oracle uses; the optimized loops inline the same cursor.

2. **Counter-based per-trial streams** for the parallel-trials path
   (:mod:`repro.kernels.parallel_trials`).  Trial ``i`` of a run rooted
   at ``seed`` owns the stream ``splitmix64(trial_seed(seed, i))``, where
   :func:`trial_seed` derives a 64-bit key from
   ``SeedSequence(entropy=seed, spawn_key=(i,))`` — the same child the
   process-pool engine would spawn.  Draw ``k`` of the stream is the pure
   function ``mix64(key + (k+1) * GAMMA)`` (:func:`splitmix64_block`),
   identical whether computed vectorized here or scalar by
   :class:`repro.rng.splitmix.SplitMix64` — so per-trial
   results are independent of scheduling, chunking, and host (the
   *seed-equivalence* guarantee).

The block sizes and the tie width are owned here.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.rng.splitmix import _GAMMA, _MIX1, _MIX2

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hashing.base import ChoiceScheme

__all__ = [
    "CHOICE_BLOCK",
    "EVENT_BLOCK",
    "TIE_BITS",
    "BlockedDraws",
    "refill_choice_block",
    "refill_event_block",
    "splitmix64_block",
    "trial_seed",
]

#: Events per prefetched exponential/uniform block.
EVENT_BLOCK = 4096
#: Arrivals per prefetched choice/tie-key block.
CHOICE_BLOCK = 4096
#: Queue-kernel tie-key width: collisions (equal length and key) fall back
#: to the first candidate with probability 2**-20 per tie — unobservable
#: at paper scale.  The packed ``queue_len << TIE_BITS | tie`` key is
#: width-checked by :mod:`repro.kernels.packing` (see
#: :func:`repro.kernels.supermarket.check_queue_packing`).
TIE_BITS = 20

_U64 = np.uint64


def refill_event_block(
    rng: np.random.Generator, block: int = EVENT_BLOCK
) -> tuple[np.ndarray, np.ndarray]:
    """One canonical event refill: ``(exponentials, uniforms)``.

    Draw order (exponentials first) is part of the contract — backends
    must obtain event blocks through this function (or reproduce these
    two calls verbatim) to stay bit-identical.
    """
    return rng.exponential(1.0, block), rng.random(block)


def refill_choice_block(
    scheme: "ChoiceScheme",
    rng: np.random.Generator,
    block: int = CHOICE_BLOCK,
    tie_bits: int = TIE_BITS,
) -> tuple[np.ndarray, np.ndarray]:
    """One canonical choice refill: ``(choices, tie_keys)``.

    ``choices`` is the scheme's ``(block, d)`` candidate matrix and
    ``tie_keys`` a matching int64 matrix of ``tie_bits``-wide keys, drawn
    unconditionally (see the module contract).
    """
    choices = scheme.batch(block, rng)
    ties = rng.integers(0, 1 << tie_bits, size=(block, scheme.d), dtype=np.int64)
    return choices, ties


class BlockedDraws:
    """Lazily refilled cursor over a tuple of parallel draw arrays.

    The plainest consumer of the block contract: ``take()`` returns the
    current row (one scalar per array), refilling via the supplied
    callable only when the block is exhausted.  The cursor starts
    exhausted, so no randomness is consumed before the first ``take`` —
    a run that terminates immediately leaves the generator untouched.

    The optimized kernels do not call through this class (a per-event
    method call costs more than the draw); they inline the identical
    cursor logic.  The reference oracle uses it directly, making the
    contract executable.
    """

    __slots__ = ("_arrays", "_block", "_i", "_refill")

    def __init__(
        self, block: int, refill: Callable[[], tuple[np.ndarray, ...]]
    ) -> None:
        self._block = block
        self._refill = refill
        self._arrays: tuple[np.ndarray, ...] = ()
        self._i = block  # exhausted: first take() triggers a refill

    def take(self) -> tuple:
        """The next row of draws, refilling lazily."""
        if self._i == self._block:
            self._arrays = self._refill()
            self._i = 0
        i = self._i
        self._i = i + 1
        return tuple(a[i] for a in self._arrays)


def trial_seed(root: int | None, index: int) -> int:
    """The 64-bit counter-stream key of trial ``index`` under ``root``.

    Derived from ``SeedSequence(entropy=root, spawn_key=(index,))`` — the
    same child ``spawn_seeds`` would hand a worker — so the parallel-trials
    path and the process-pool path draw per-trial keys from one family.
    """
    ss = np.random.SeedSequence(entropy=root, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def splitmix64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Draws ``start .. start+count-1`` of the splitmix64 stream of ``seed``.

    Vectorized, stateless evaluation of the counter stream: element ``k``
    equals the ``(start + k + 1)``-th output of
    :class:`repro.rng.splitmix.SplitMix64` seeded with ``seed`` (pinned by
    ``tests/kernels/test_blockrng.py``).  Returns a uint64 array.
    """
    ctr = np.arange(start + 1, start + 1 + count, dtype=np.uint64)
    z = _U64(seed & 0xFFFFFFFFFFFFFFFF) + ctr * _U64(_GAMMA)
    z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
    return z ^ (z >> _U64(31))
