"""Event-driven supermarket-model simulation (paper Table 8).

``n`` FIFO queues, Poisson(λn) arrivals, exp(1) service; each arrival joins
the shortest of ``d`` queues drawn from a pluggable
:class:`~repro.hashing.base.ChoiceScheme` — the same scheme objects the
balls-and-bins engines use, so "fully random vs. double hashing" is a
one-argument switch here too.

The simulator uniformizes the continuous-time Markov chain at the
constant rate ``(1 + λ)n`` (arrivals, and service ticks at uniform queues
that do nothing on an empty queue), so every event is drawn before the
loop and no event heap is needed; :func:`simulate_supermarket` runs a
batch of :class:`SupermarketRun` descriptions in one kernel call.  See
:mod:`repro.kernels.supermarket`.
"""

from repro.queueing.supermarket_sim import SupermarketRun, simulate_supermarket

__all__ = [
    "SupermarketRun",
    "simulate_supermarket",
]
