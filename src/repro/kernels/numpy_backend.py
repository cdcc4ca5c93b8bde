"""Fused numpy placement kernel: out-of-order speculative commits.

Why a window
------------
Sequential balanced allocation cannot be vectorized along the ball axis
naively — ball ``t+1`` must see ball ``t``'s placement.  What *is* legal
is committing a ball once no earlier pending ball has the bin it picks
among its candidates.  The kernel keeps a window of up to ``window``
pending balls per trial and, each pass:

1. gathers the packed candidates of every window slot (flat ``np.take``
   with precomputed plane offsets, everything into preallocated scratch);
2. computes each slot's pick against the *frozen* loads via packed
   integer keys (``load << 31 | tie_key << cidx_bits | flat_bin`` — the
   minimum's low bits are the chosen bin, see :mod:`repro.kernels.generate`);
3. detects conflicts with an *ordered stamp* scatter: candidate indices
   are written in globally descending window order, so each touched bin
   ends up stamped with the **minimum window position** that references
   it; a slot waits iff the stamp of the bin it picks precedes it;
4. commits every other real slot (their picks are distinct bins, so a
   plain fancy ``+= 1`` is exact), compacts the waiting slots to the
   front of the window, and refills from the ball stream.

Why the rule is exact
---------------------
Until a ball's turn, the earlier pending balls only raise loads, so the
keys of the candidates it does not pick only grow; none of them can
land in the bin it picks, so that key is unchanged, and the pick
against the frozen loads is the sequential pick.  The commits of one
pass land in distinct bins (a later ball picking an earlier committing
ball's bin sees that ball's stamp), and none lands in a candidate of an
earlier waiting ball (whose stamp would precede it).  This holds for
random and left ties and for ``d = 1``.  Dummy slots stamp only their
trial's dummy bin, which no real ball picks.

The first window slot never waits, so every pass commits at least one
ball per unfinished trial — no livelock.  The committed result is a pure
function of the drawn candidate/tie arrays and equals the sequential
reference bit-for-bit (property- and case-tested in ``tests/kernels``).

Constant stamps
---------------
The stamp table is never cleared between passes, and the stamp values
are the same every pass (the window positions, written once into
``svals`` when the workspace is built).  Stale entries are harmless:
the scatter covers every candidate, a pick is one of its ball's
candidates, so every stamp a pass reads was written earlier in that
same pass.

Window and throughput
---------------------
A pass commits about ``C·(1 − e^{−W/C})`` balls per trial.  The plateau
``C`` is about ``n/(2d)``; it was about ``n/(2d²)`` when a ball waited on
every earlier pending ball that shared any of its candidates.  Each pass
also pays a fixed numpy dispatch cost of about 50 µs, so
:func:`choose_window` sizes the window to the call: about 20,000
candidates (``trials · W · d``) per pass, at least 16 slots, and at most
the plateau, past which a wider window adds work and no commits.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.generate import KernelLayout

__all__ = ["NumpyBackend", "choose_window"]


# Candidates per pass (trials · W · d) that choose_window aims at: enough
# to amortize a pass's fixed dispatch cost.  10k–40k measured flat within
# the host's noise (docs/performance.md, "Window, spans and passes").
_PASS_CANDIDATES = 20_000


def choose_window(n_bins: int, d: int, trials: int) -> int:
    """Pending-window size for a ``place`` call over ``trials`` trials.

    About 20,000 candidates per pass, at least 16 slots and at most
    ``n_bins // (2 d)``, the commits-per-pass plateau (see above).  The
    window schedules only; it never changes a result.
    """
    return max(16, min(_PASS_CANDIDATES // (trials * d), n_bins // (2 * d)))


class NumpyWorkspace:
    """Preallocated scratch reused across kernel invocations.

    Geometry-keyed on ``(d, trials, window, bins_p)``; per-call buffers
    (window state, plane offsets) are cheap and rebuilt each ``place``.
    ``dtype`` is the packed-candidate dtype (int32 narrow, int64 wide).
    The gather and scatter indices (``gidx``, ``cidx``, ``scat``) are
    ``intp``: numpy converts any other index dtype to ``intp`` on every
    ``take`` and fancy assignment.  Loads, stamps and every other value
    array stay int32.
    """

    def __init__(
        self, d: int, trials: int, window: int, bins_p: int, dtype=np.int32
    ) -> None:
        self.d = d
        self.trials = trials
        self.window = window
        self.bins_p = bins_p
        plane = (d, trials, window)
        row = (trials, window)
        self.gidx = np.empty(plane, np.intp)
        self.pcg = np.empty(plane, dtype)
        self.cidx = np.empty(plane, np.intp)
        self.kv = np.empty(plane, np.int32)
        self.key = np.empty(plane, np.int64)
        self.scat = np.empty((window, trials, d), np.intp)
        # Stamp values in scatter order: window positions, descending.
        self.svals = np.repeat(
            np.arange(window - 1, -1, -1, dtype=np.int32), trials * d
        )
        self.spick = np.empty(row, np.int32)
        self.kmin = np.empty(row, np.int64)
        self.chosen = np.empty(row, np.int64)
        self.viol = np.empty(row, bool)
        self.commit = np.empty(row, bool)
        self.keep = np.empty(row, bool)
        self.win = np.empty(row, np.int32)
        self.win2 = np.empty(row, np.int32)
        self.stamp = np.zeros(trials * bins_p, np.int32)
        self.u_ix = np.arange(window, dtype=np.int32)[None, :]
        self.trow = np.arange(trials, dtype=np.int32) * np.int32(window)


class NumpyBackend:
    """The always-available fused numpy backend."""

    name = "numpy"

    def make_workspace(
        self, *, d: int, trials: int, window: int, bins_p: int, dtype=np.int32
    ) -> NumpyWorkspace:
        """Allocate the scratch buffers for this geometry (reused per chunk)."""
        return NumpyWorkspace(d, trials, window, bins_p, dtype)

    def place(
        self,
        loads: np.ndarray,
        pc: np.ndarray,
        *,
        layout: KernelLayout,
        workspace: NumpyWorkspace,
    ) -> int:
        """Place every ball of ``pc`` into the flat ``loads`` table.

        ``loads`` is the int32 ``(trials * bins_p,)`` padded table;
        ``pc`` the packed ``(d, trials, steps + 1)`` candidates.  Returns
        the number of kernel passes (for instrumentation).
        """
        ws = workspace
        d, trials, steps_p = pc.shape
        steps = steps_p - 1
        window = ws.window
        cidx_mask = layout.cidx_mask
        # The packed dtype's own mask keeps the narrow layout's AND an
        # int32 loop (an int64 mask would upcast every candidate).
        pmask = layout.dtype.type(cidx_mask)
        kmul = np.int64(1) << np.int64(layout.key_shift)
        pcflat = pc.reshape(-1)
        # Flat offsets of each (plane, trial) row inside pcflat; cheap to
        # rebuild per call since steps may differ on the final superblock.
        goff = (
            (np.arange(d, dtype=np.int32) * np.int32(trials * steps_p))[:, None, None]
            + (np.arange(trials, dtype=np.int32) * np.int32(steps_p))[None, :, None]
        )
        win = ws.win
        win[:] = np.minimum(np.arange(window, dtype=np.int32), steps)[None, :]
        win2 = ws.win2
        cursor = np.full(trials, min(window, steps), dtype=np.int32)
        stamp = ws.stamp
        placed = 0
        total = trials * steps
        passes = 0
        while placed < total:
            passes += 1
            # 1. gather the window's packed candidates
            np.add(win[None, :, :], goff, out=ws.gidx)
            pcflat.take(ws.gidx, out=ws.pcg, mode="clip")
            np.bitwise_and(ws.pcg, pmask, out=ws.cidx)
            # 2. picks against frozen loads via packed keys
            loads.take(ws.cidx, out=ws.kv, mode="clip")
            np.multiply(ws.kv, kmul, out=ws.key)
            ws.key += ws.pcg
            np.copyto(ws.kmin, ws.key[0])
            for j in range(1, d):
                np.minimum(ws.kmin, ws.key[j], out=ws.kmin)
            np.bitwise_and(ws.kmin, cidx_mask, out=ws.chosen)
            # 3. ordered stamp round: each touched bin ends up holding the
            # minimum window position that references it this pass; a slot
            # waits iff an earlier slot references the bin it picks
            np.copyto(ws.scat, ws.cidx.transpose(2, 1, 0)[::-1])
            stamp[ws.scat.reshape(-1)] = ws.svals
            stamp.take(ws.chosen, out=ws.spick, mode="clip")
            np.less(ws.spick, ws.u_ix, out=ws.viol)
            # 4. commit the undisturbed slots, keep the waiting ones
            real = win != steps
            np.logical_and(ws.viol, real, out=ws.keep)
            np.logical_xor(real, ws.keep, out=ws.commit)
            cb = ws.chosen[ws.commit]
            loads[cb] += 1
            placed += cb.size
            # compact kept slots to the window front (order-preserving)
            # and refill the tail from each trial's ball cursor
            nk_t, nk_c = ws.keep.nonzero()
            cnt = np.bincount(nk_t, minlength=trials).astype(np.int32)
            starts = np.zeros(trials + 1, np.int32)
            np.cumsum(cnt, out=starts[1:])
            rank = np.arange(nk_t.size, dtype=np.int32) - starts[nk_t]
            np.add(ws.u_ix, cursor[:, None] - cnt[:, None], out=win2)
            np.minimum(win2, steps, out=win2)
            win2.reshape(-1)[ws.trow[nk_t] + rank] = win[nk_t, nk_c]
            win, win2 = win2, win
            np.minimum(cursor + (window - cnt), steps, out=cursor)
        ws.win, ws.win2 = win, win2
        return passes
