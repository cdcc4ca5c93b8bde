"""Event-driven supermarket-model simulation (paper Table 8).

``n`` FIFO queues, Poisson(λn) arrivals, exp(1) service; each arrival joins
the shortest of ``d`` queues drawn from a pluggable
:class:`~repro.hashing.base.ChoiceScheme` — the same scheme objects the
balls-and-bins engines use, so "fully random vs. double hashing" is a
one-argument switch here too.

The simulator uses the continuous-time Markov chain directly (memoryless
service means the time to the next departure is Exp(#busy) and the departing
queue is uniform among busy queues), so no event heap is needed; see
:mod:`repro.queueing.supermarket_sim`.
"""

from repro.queueing.measures import SojournAccumulator
from repro.queueing.supermarket_sim import simulate_supermarket

__all__ = [
    "SojournAccumulator",
    "simulate_supermarket",
]
