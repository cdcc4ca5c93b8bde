"""Draw-stream helpers shared by the kernels.

- :data:`TIE_BITS`: the width of the supermarket kernel's random tie
  keys.  A run's schedule (:func:`repro.kernels.supermarket.draw_events`)
  draws one ``TIE_BITS``-wide key per candidate of every arrival; the
  packed ``queue_len << TIE_BITS | tie`` comparison key is width-checked
  by :mod:`repro.kernels.packing` (see
  :func:`repro.kernels.supermarket.check_queue_packing`).
- **Counter-based per-trial streams** for the parallel-trials path
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
"""

from __future__ import annotations

import numpy as np

from repro.rng.splitmix import _GAMMA, _MIX1, _MIX2

__all__ = [
    "TIE_BITS",
    "splitmix64_block",
    "trial_seed",
]

#: Supermarket tie-key width: two candidates of equal length and equal
#: key fall back to the smaller queue id, with probability 2**-20 per
#: pair — unobservable at paper scale.
TIE_BITS = 20

_U64 = np.uint64


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
