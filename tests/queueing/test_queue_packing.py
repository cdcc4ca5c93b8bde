"""Queue-length packing guard and the blockrng constants' single home.

Regression for the latent overflow: the supermarket kernels pack
``queue_len << TIE_BITS | tie_key`` into int64, so a queue length that
needs more than 43 bits corrupts the arrival argmin.  The packing module
now rejects such configurations up front; the boundary sits exactly at
``max_total_jobs = 2**43``.
"""

import warnings

import pytest

from repro.errors import ConfigurationError
from repro.hashing import DoubleHashingChoices
from repro.kernels.supermarket import check_queue_packing
from repro.queueing import SupermarketRun, simulate_supermarket


class TestCheckQueuePacking:
    def test_boundary(self):
        # queue_len can reach max_total_jobs, needing
        # field_width(max_total_jobs + 1) bits next to the 20 tie bits
        # in 63 value bits: 2**43 - 1 is the last admissible value.
        check_queue_packing((1 << 43) - 1)
        with pytest.raises(ConfigurationError, match="tie"):
            check_queue_packing(1 << 43)

    def test_kernel_entry_point_rejects_overflow(self):
        with pytest.raises(ConfigurationError):
            simulate_supermarket([SupermarketRun(
                DoubleHashingChoices(8, 2),
                0.5,
                1.0,
                burn_in=0.0,
                seed=1,
                max_total_jobs=1 << 43,
            )])[0]

    def test_paper_scale_defaults_pass(self):
        # The default cap (50 n) is nowhere near the boundary.
        check_queue_packing(50 * (1 << 20))


class TestDeprecationShim:
    """The draw-contract constants live only in ``repro.kernels.blockrng``."""

    @pytest.mark.parametrize("name", ["EVENT_BLOCK", "CHOICE_BLOCK", "TIE_BITS"])
    def test_old_names_removed(self, name):
        import repro.kernels.supermarket as sm

        with pytest.raises(AttributeError):
            getattr(sm, name)

    def test_unknown_attribute_still_raises(self):
        import repro.kernels.supermarket as sm

        with pytest.raises(AttributeError):
            sm.NO_SUCH_CONSTANT

    def test_canonical_home_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.kernels import blockrng

            assert blockrng.TIE_BITS == 20
