"""Bit-exactness of the fused numpy kernel against a sequential oracle.

The out-of-order speculative-commit kernel is only admissible because its
result is provably identical to placing the balls one at a time.  These
tests enforce that claim directly: for a grid of geometries the kernel's
loads must equal :func:`repro.kernels.sequential_packed_reference` (a
pure-Python ball-at-a-time loop over the same packed draws) bin for bin.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.certify import run_certification
from repro.certify.tiers import TIERS
from repro.core import simulate_batch
from repro.hashing import (
    DoubleHashingChoices,
    FullyRandomChoices,
    PartitionedDoubleHashing,
)
from repro.kernels import (
    choose_window,
    generate_packed,
    kernel_metrics,
    plan_layout,
    resolve_backend,
    sequential_packed_reference,
)
from repro.rng import default_generator

# (n_bins, d, trials, steps, tie_break) — covers d=1 (no choice), window
# larger than the whole stream, heavy load (steps >> n), left ties, and
# the asymmetric shapes that broke early kernel drafts.
GEOMETRIES = [
    (8, 3, 3, 32, "random"),
    (8, 1, 2, 16, "random"),
    (64, 4, 5, 200, "random"),
    (16, 2, 4, 64, "random"),
    (8, 3, 2, 5, "random"),      # window > steps
    (64, 2, 3, 777, "random"),
    (4, 4, 3, 64, "random"),     # heavy load, tiny table
    (64, 4, 5, 200, "left"),
    (256, 3, 2, 512, "left"),
    (4, 2, 3, 96, "left"),
]


#: Window sizes from one slot (plain sequential placement) to past the
#: whole stream; the tests add ``steps + 5``.
WINDOWS = [1, 2, 3, 7, 64, 300]


def _place(pc, layout, window=None):
    """Run ``place`` on a fresh table; return (padded loads, passes)."""
    d, trials, _ = pc.shape
    if window is None:
        window = choose_window(layout.n_bins, d, trials)
    impl = resolve_backend("numpy")
    work = np.zeros(trials * layout.bins_p, dtype=np.int32)
    ws = impl.make_workspace(
        d=d, trials=trials, window=window, bins_p=layout.bins_p,
        dtype=layout.dtype,
    )
    passes = impl.place(work, pc, layout=layout, workspace=ws)
    return work.reshape(trials, layout.bins_p).astype(np.int64), passes


def _kernel_loads(pc, layout, window=None):
    return _place(pc, layout, window)[0][:, : layout.n_bins]


@pytest.mark.parametrize("n,d,trials,steps,tie_break", GEOMETRIES)
def test_kernel_matches_sequential_reference(n, d, trials, steps, tie_break):
    layout = plan_layout(n, d, tie_break, trials, steps)
    assert layout is not None
    scheme = FullyRandomChoices(n, d)
    pc = generate_packed(scheme, trials, steps, default_generator(1234), layout)
    got = _kernel_loads(pc, layout)
    want = sequential_packed_reference(pc, layout)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [8, 64, 512])
def test_fused_double_hashing_path_matches_reference(n):
    """The pow2 fused generator feeds the same kernel; exactness must hold
    on its output too (its packing differs from the generic path)."""
    d, trials, steps = 3, 4, 3 * n
    layout = plan_layout(n, d, "random", trials, steps)
    scheme = DoubleHashingChoices(n, d)
    pc = generate_packed(scheme, trials, steps, default_generator(9), layout)
    got = _kernel_loads(pc, layout)
    want = sequential_packed_reference(pc, layout)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n,d,trials,steps,tie_break", GEOMETRIES)
def test_every_window_matches_sequential_reference(n, d, trials, steps, tie_break):
    """The window schedules only: every size places like the oracle."""
    layout = plan_layout(n, d, tie_break, trials, steps)
    pc = generate_packed(
        FullyRandomChoices(n, d), trials, steps, default_generator(1234), layout
    )
    want = sequential_packed_reference(pc, layout)
    for window in [*WINDOWS, steps + 5]:
        got = _kernel_loads(pc, layout, window)
        assert np.array_equal(got, want), window


@pytest.mark.parametrize("n", [8, 64, 512])
def test_fused_path_matches_reference_at_every_window(n):
    d, trials, steps = 3, 4, 3 * n
    layout = plan_layout(n, d, "random", trials, steps)
    pc = generate_packed(
        DoubleHashingChoices(n, d), trials, steps, default_generator(9), layout
    )
    want = sequential_packed_reference(pc, layout)
    for window in [*WINDOWS, steps + 5]:
        got = _kernel_loads(pc, layout, window)
        assert np.array_equal(got, want), window


def test_fused_draws_are_valid_double_hashing_progressions():
    """Candidate columns from the fused path form arithmetic progressions
    mod n with an odd stride, i.e. genuine double-hashing probes."""
    n, d, trials, steps = 64, 4, 3, 50
    layout = plan_layout(n, d, "random", trials, steps)
    pc = generate_packed(
        DoubleHashingChoices(n, d), trials, steps, default_generator(2), layout
    )
    toff = np.arange(trials, dtype=np.int64) * layout.bins_p
    bins = (pc[:, :, :steps] & int(layout.cidx_mask)) - toff[None, :, None]
    stride = (bins[1] - bins[0]) % n
    for k in range(2, d):
        assert np.array_equal((bins[k] - bins[k - 1]) % n, stride)
    assert (stride % 2 == 1).all()
    assert (bins >= 0).all() and (bins < n).all()


def test_window_exceeding_steps_is_exact():
    """The commit logic must not read past the dummy column when the whole
    stream fits inside one window."""
    n, d, trials, steps = 128, 2, 6, 3
    layout = plan_layout(n, d, "random", trials, steps)
    pc = generate_packed(
        FullyRandomChoices(n, d), trials, steps, default_generator(77), layout
    )
    got = _kernel_loads(pc, layout)
    assert np.array_equal(got, sequential_packed_reference(pc, layout))
    assert (got.sum(axis=1) == steps).all()


def test_split_stream_matches_single_call():
    """Placement is exactly sequential, so one packed ball stream split
    across two ``place`` calls on the same work table must reproduce the
    single-call loads bit for bit (``simulate_batch`` relies on this when
    a trial chunk's balls take more than one span of superblocks)."""
    n, d, trials, steps = 32, 3, 4, 100
    layout = plan_layout(n, d, "random", trials, steps)
    pc = generate_packed(
        FullyRandomChoices(n, d), trials, steps, default_generator(3), layout
    )
    whole = _kernel_loads(pc, layout)

    half = steps // 2
    # Each call needs its own trailing dummy column.
    first = np.concatenate([pc[:, :, :half], pc[:, :, steps:]], axis=2)
    second = pc[:, :, half:]
    impl = resolve_backend("numpy")
    work = np.zeros(trials * layout.bins_p, dtype=np.int32)
    ws = impl.make_workspace(
        d=d, trials=trials, window=choose_window(n, d, trials), bins_p=layout.bins_p
    )
    impl.place(work, first, layout=layout, workspace=ws)
    impl.place(work, second, layout=layout, workspace=ws)
    split = work.reshape(trials, layout.bins_p)[:, :n].astype(np.int64)

    assert np.array_equal(split, whole)
    assert np.array_equal(whole, sequential_packed_reference(pc, layout))
    assert (split.sum(axis=1) == steps).all()


def _packed(layout, trials_balls, ties=None):
    """A ``(d, trials, steps + 1)`` packed array from per-trial bin lists.

    ``trials_balls[t][b]`` lists ball ``b``'s candidate bins in trial
    ``t``; ``ties`` has the same shape, and left ties use the column.
    """
    d = layout.d
    trials = len(trials_balls)
    steps = len(trials_balls[0])
    pc = np.empty((d, trials, steps + 1), np.int64)
    for t, balls in enumerate(trials_balls):
        base = t * layout.bins_p
        pc[:, t, steps] = base + layout.n_bins
        for b, bins in enumerate(balls):
            for j, q in enumerate(bins):
                tie = j if ties is None else ties[t][b][j]
                pc[j, t, b] = (tie << layout.cidx_bits) | (base + q)
    return pc.astype(layout.dtype)


class TestCommitRule:
    """When a ball commits, on hand-made streams over four bins.

    A ball commits once no earlier pending ball has the bin it picks
    among its candidates.  Each case checks ``place``'s pass count, and
    that the loads equal the oracle's with nothing in the dummy bin.
    """

    # Ball 1 {0, 1} picks 0; ball 2 {1, 2} picks 2.  They share bin 1,
    # which ball 2 does not pick, so both commit in the first pass.
    SHARED = ([[0, 1], [1, 2]], [[1, 2], [5, 3]])
    # Ball 1 {0, 1} picks 1; ball 2 {1, 2} would pick 1 against the loads
    # before ball 1, a candidate of ball 1, so it waits and then picks 2.
    PICKED = ([[0, 1], [1, 2]], [[5, 1], [3, 5]])

    def _run(self, tie_break, trials_balls, ties=None, window=4):
        layout = plan_layout(4, 2, tie_break, len(trials_balls), 2)
        pc = _packed(layout, trials_balls, ties)
        loads, passes = _place(pc, layout, window)
        assert np.array_equal(
            loads[:, :4], sequential_packed_reference(pc, layout)
        )
        assert not loads[:, 4].any()
        return loads[:, :4], passes

    def test_commits_past_a_shared_candidate_it_does_not_pick(self):
        balls, ties = self.SHARED
        loads, passes = self._run("random", [balls], [ties])
        assert loads.tolist() == [[1, 0, 1, 0]]
        assert passes == 1

    def test_waits_when_its_pick_is_a_pending_candidate(self):
        balls, ties = self.PICKED
        loads, passes = self._run("random", [balls], [ties])
        assert loads.tolist() == [[0, 1, 1, 0]]
        assert passes == 2

    def test_left_ties(self):
        # Ball 1 {0, 1} picks 0 (column 0).  Ball 2 {2, 1} picks 2, past
        # the shared bin 1; ball 2 {1, 2} picks 1 and waits for ball 1.
        loads, passes = self._run("left", [[[0, 1], [2, 1]]])
        assert (loads.tolist(), passes) == ([[1, 0, 1, 0]], 1)
        loads, passes = self._run("left", [[[0, 1], [1, 2]]])
        assert (loads.tolist(), passes) == ([[1, 1, 0, 0]], 2)

    def test_window_of_dummy_slots_past_the_stream(self):
        # Trial 0 is done after the first pass, so its window holds only
        # dummy slots while trial 1's second ball waits a pass.
        (b0, t0), (b1, t1) = self.SHARED, self.PICKED
        loads, passes = self._run("random", [b0, b1], [t0, t1], window=6)
        assert loads.tolist() == [[1, 0, 1, 0], [0, 1, 1, 0]]
        assert passes == 2


def _superblock_reference(scheme, n_balls, trials, rng, tie_break, block):
    """One superblock at a time, placed by the oracle in stream order."""
    n, d = scheme.n_bins, scheme.d
    layout = plan_layout(n, d, tie_break, trials, min(block, n_balls))
    rows = []
    for t0 in range(0, trials, layout.trial_chunk):
        chunk = min(layout.trial_chunk, trials - t0)
        parts = [
            generate_packed(scheme, chunk, min(block, n_balls - s0), rng, layout)
            for s0 in range(0, n_balls, block)
        ]
        # Every part but the last drops its dummy column.
        pc = np.concatenate([p[:, :, :-1] for p in parts[:-1]] + parts[-1:], axis=2)
        rows.append(sequential_packed_reference(pc, layout))
    return np.concatenate(rows)


@pytest.mark.parametrize("trials", [1, 2, 7, 25])
@pytest.mark.parametrize(
    "scheme,tie_break",
    [
        (FullyRandomChoices(64, 3), "random"),      # generic path
        (DoubleHashingChoices(64, 3), "random"),    # fused path
        (DoubleHashingChoices(67, 3), "random"),    # prime n, generic
        (PartitionedDoubleHashing(66, 3), "left"),  # d-left
    ],
    ids=["random", "double-pow2", "double-prime", "dleft"],
)
def test_spans_keep_the_superblock_draw_stream(scheme, tie_break, trials):
    """``simulate_batch`` places several superblocks per call, yet draws
    each one as a superblock-at-a-time reference does, and leaves the
    generator in the same state."""
    block = 64
    n_balls = 3 * block + 17
    rng, twin = default_generator(5), default_generator(5)
    got = simulate_batch(
        scheme, n_balls, trials, seed=rng, tie_break=tie_break, block=block
    )
    want = _superblock_reference(scheme, n_balls, trials, twin, tie_break, block)
    assert np.array_equal(got.loads, want)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_smoke_tier_place_passes():
    """The smoke tier's placement runs took 5,649 passes when a ball
    waited on every candidate and the window was sized from ``n`` alone.
    The count is deterministic: 698 now, 1,017 with the old rule alone,
    5,218 with the old window alone."""
    smoke = TIERS["smoke"]
    runs = tuple(r for r in smoke.runs if r.table not in ("table8", "peeling"))
    before = kernel_metrics().get_counter("kernel.place_passes")
    run_certification(dataclasses.replace(smoke, runs=runs), workers=1)
    passes = kernel_metrics().get_counter("kernel.place_passes") - before
    assert 0 < passes <= 800
