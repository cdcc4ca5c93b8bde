"""Draw-stream constants shared by the kernels.

:data:`TIE_BITS` is the width of the supermarket kernel's random tie
keys.  A run's schedule (:func:`repro.kernels.supermarket.draw_events`)
draws one ``TIE_BITS``-wide key per candidate of every arrival; the
packed ``queue_len << TIE_BITS | tie`` comparison key is width-checked
by :mod:`repro.kernels.packing` (see
:func:`repro.kernels.supermarket.check_queue_packing`).
"""

from __future__ import annotations

__all__ = ["TIE_BITS"]

#: Supermarket tie-key width: two candidates of equal length and equal
#: key fall back to the smaller queue id, with probability 2**-20 per
#: pair — unobservable at paper scale.
TIE_BITS = 20
