"""Wide (int64) packed-layout tests: planning, exactness, overflow guard."""

import tracemalloc

import numpy as np
import pytest

from repro.core.vectorized import simulate_batch
from repro.errors import ConfigurationError, SimulationError
from repro.hashing import DoubleHashingChoices
from repro.kernels.generate import (
    KEY_SHIFT,
    KernelLayout,
    generate_packed,
    plan_layout,
)
from repro.kernels.numpy_backend import NumpyBackend, choose_window
from repro.kernels.reference import sequential_packed_reference
from repro.rng import default_generator


def _place(work, pc, layout):
    impl = NumpyBackend()
    ws = impl.make_workspace(
        d=layout.d,
        trials=layout.trial_chunk,
        window=choose_window(layout.n_bins, layout.d, layout.trial_chunk),
        bins_p=layout.n_bins + 1,
        dtype=layout.dtype,
    )
    impl.place(work, pc, layout=layout, workspace=ws)


class TestPlanning:
    def test_small_tables_stay_narrow(self):
        layout = plan_layout(2**14, 3, "random", 50, 512)
        assert not layout.wide
        assert layout.key_shift == KEY_SHIFT
        assert layout.dtype == np.dtype(np.int32)

    def test_giant_tables_go_wide(self):
        # bins_p * trials far beyond the 31-bit packed address space.
        layout = plan_layout((1 << 23) + 7, 2, "random", 3, 512)
        assert layout is not None and layout.wide
        assert layout.dtype == np.dtype(np.int64)
        assert layout.key_shift == layout.tie_bits + layout.cidx_bits
        # The flat chunk table must fit the 31-bit cidx field.
        assert layout.cidx_bits <= 31
        assert (layout.n_bins + 1) * layout.trial_chunk <= 1 << 31
        assert layout.load_bits == 63 - layout.key_shift
        # n_bins + 1 must fit a 31-bit index: 2**31 - 1 bins is the last
        # addressable table, and one more bin has no layout.
        assert plan_layout(2**31 - 1, 2, "random", 1, 1).wide
        assert plan_layout(2**31, 2, "random", 1, 1) is None

    def test_wide_layouts_chunk_trials(self):
        layout = plan_layout((1 << 23) + 7, 2, "random", 64, 512)
        assert layout.wide
        assert layout.trial_chunk < 64

    def test_narrow_planning_unchanged(self):
        # The historical tie trade-down still happens before widening.
        layout = plan_layout((1 << 22) - 1, 3, "random", 1, 512)
        assert not layout.wide
        assert layout.tie_bits == 9


class TestAddressSpaceBoundary:
    """Tables no packed layout can host fail loudly before allocating."""

    def test_simulate_batch_rejects_before_allocating(self):
        scheme = DoubleHashingChoices(2**31, 2)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="address space"):
                simulate_batch(scheme, 1, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The (1, 2**31) int32 load table alone would be 8 GiB.
        assert peak < 1 << 20


class TestExactness:
    def test_forced_wide_matches_sequential_reference(self):
        # A small geometry forced into a wide layout must place exactly
        # like the scalar reference walk of the same packed draws.
        n, d, trials, steps = 97, 3, 2, 300
        narrow = plan_layout(n, d, "random", trials, steps)
        wide = KernelLayout(
            n_bins=n,
            d=d,
            tie_break="random",
            tie_bits=narrow.tie_bits,
            cidx_bits=narrow.cidx_bits,
            trial_chunk=trials,
            key_shift=narrow.tie_bits + narrow.cidx_bits + 10,
            wide=True,
        )
        rng = np.random.default_rng(77)
        scheme = DoubleHashingChoices(n, d)
        pc = generate_packed(scheme, trials, steps, rng, wide)
        assert pc.dtype == np.int64
        expected = sequential_packed_reference(pc, wide)
        work = np.zeros(trials * (n + 1), np.int32)
        _place(work, pc, wide)
        assert np.array_equal(
            work.reshape(trials, n + 1)[:, :n], expected
        )

    def test_giant_n_smoke(self):
        # Past the int32 address space end to end: simulate_batch's own
        # planner goes wide (2**23 is the first n that does), and its
        # loads equal the scalar walk of the same packed draws.
        n, balls, seed = (1 << 23) + 11, 1 << 16, 5
        scheme = DoubleHashingChoices(n, 2)
        layout = plan_layout(n, 2, "random", 1, balls)
        assert layout.wide
        batch = simulate_batch(scheme, balls, 1, seed=seed, block=balls)
        pc = generate_packed(scheme, 1, balls, default_generator(seed), layout)
        expected = sequential_packed_reference(pc, layout)
        assert np.array_equal(batch.loads, expected)


class TestOverflowGuard:
    def test_thin_load_field_raises_instead_of_wrapping(self):
        # Engineer a 1-bit load field: any bin reaching load 2 must abort
        # the run loudly.
        n = (1 << 23) + 7
        layout = plan_layout(n, 2, "random", 1, 512)
        assert layout.wide
        # loads_bits is ~29 here; instead force the guard directly via a
        # tiny synthetic layout exercised through simulate_batch's chunk
        # check by throwing enough balls to overflow a 1-bit field.
        thin = KernelLayout(
            n_bins=15,
            d=2,
            tie_break="random",
            tie_bits=29,
            cidx_bits=33 - 4,
            trial_chunk=1,
            key_shift=62,
            wide=True,
        )
        assert thin.load_bits == 1
        rng = np.random.default_rng(3)
        scheme = DoubleHashingChoices(15, 2)
        pc = generate_packed(scheme, 1, 64, rng, thin)
        work = np.zeros(16, np.int32)
        _place(work, pc, thin)
        # 64 balls into 15 bins: some bin exceeds 1 -> the packed keys
        # wrapped, and the residue the kernel post-check looks for is set.
        assert int(work.max()) >> thin.load_bits != 0

    def test_simulate_batch_post_check_message(self, monkeypatch):
        # Route a normal run through a wide layout with a 1-bit load
        # field and confirm the engine raises SimulationError.
        import repro.core.vectorized as vec
        import repro.kernels.generate as gen

        real_plan = gen.plan_layout

        def thin_plan(n_bins, d, tie_break, trials, block):
            layout = real_plan(n_bins, d, tie_break, trials, block)
            return KernelLayout(
                n_bins=layout.n_bins,
                d=layout.d,
                tie_break=layout.tie_break,
                tie_bits=layout.tie_bits,
                cidx_bits=layout.cidx_bits,
                trial_chunk=layout.trial_chunk,
                key_shift=62,
                wide=True,
            )

        monkeypatch.setattr(vec, "plan_layout", thin_plan)
        with pytest.raises(SimulationError, match="overflow"):
            simulate_batch(DoubleHashingChoices(64, 2), 256, 1, seed=1)
