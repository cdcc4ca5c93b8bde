"""Bit-exactness of the fused numpy kernel against a sequential oracle.

The out-of-order speculative-commit kernel is only admissible because its
result is provably identical to placing the balls one at a time.  These
tests enforce that claim directly: for a grid of geometries the kernel's
loads must equal :func:`repro.kernels.sequential_packed_reference` (a
pure-Python ball-at-a-time loop over the same packed draws) bin for bin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.kernels import (
    choose_window,
    generate_packed,
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


def _kernel_loads(pc, layout, n_bins, d, trials):
    impl = resolve_backend("numpy")
    work = np.zeros(trials * layout.bins_p, dtype=np.int32)
    ws = impl.make_workspace(
        d=d, trials=trials, window=choose_window(n_bins, d),
        bins_p=layout.bins_p,
    )
    impl.place(work, pc, layout=layout, workspace=ws)
    return work.reshape(trials, layout.bins_p)[:, :n_bins].astype(np.int64)


@pytest.mark.parametrize("n,d,trials,steps,tie_break", GEOMETRIES)
def test_kernel_matches_sequential_reference(n, d, trials, steps, tie_break):
    layout = plan_layout(n, d, tie_break, trials, steps)
    assert layout is not None
    scheme = FullyRandomChoices(n, d)
    pc = generate_packed(scheme, trials, steps, default_generator(1234), layout)
    got = _kernel_loads(pc, layout, n, d, trials)
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
    got = _kernel_loads(pc, layout, n, d, trials)
    want = sequential_packed_reference(pc, layout)
    assert np.array_equal(got, want)


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
    got = _kernel_loads(pc, layout, n, d, trials)
    assert np.array_equal(got, sequential_packed_reference(pc, layout))
    assert (got.sum(axis=1) == steps).all()


def test_split_stream_matches_single_call():
    """Placement is exactly sequential, so one packed ball stream split
    across two ``place`` calls on the same work table must reproduce the
    single-call loads bit for bit (``simulate_batch`` relies on this to
    feed the kernel one superblock at a time)."""
    n, d, trials, steps = 32, 3, 4, 100
    layout = plan_layout(n, d, "random", trials, steps)
    pc = generate_packed(
        FullyRandomChoices(n, d), trials, steps, default_generator(3), layout
    )
    whole = _kernel_loads(pc, layout, n, d, trials)

    half = steps // 2
    # Each call needs its own trailing dummy column.
    first = np.concatenate([pc[:, :, :half], pc[:, :, steps:]], axis=2)
    second = pc[:, :, half:]
    impl = resolve_backend("numpy")
    work = np.zeros(trials * layout.bins_p, dtype=np.int32)
    ws = impl.make_workspace(
        d=d, trials=trials, window=choose_window(n, d), bins_p=layout.bins_p
    )
    impl.place(work, first, layout=layout, workspace=ws)
    impl.place(work, second, layout=layout, workspace=ws)
    split = work.reshape(trials, layout.bins_p)[:, :n].astype(np.int64)

    assert np.array_equal(split, whole)
    assert np.array_equal(whole, sequential_packed_reference(pc, layout))
    assert (split.sum(axis=1) == steps).all()
