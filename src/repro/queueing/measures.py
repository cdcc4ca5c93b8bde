"""Measurement accumulators for queueing simulations.

The paper reports "the average time over all packets after time 1000" —
mean sojourn time with a burn-in cutoff.  :class:`SojournAccumulator`
implements that plus streaming variance (Welford) and a normal-approximation
confidence interval, and tracks the time-averaged total queue length for
cross-checking against Little's law.  It also integrates the busy-queue
count, so simulators built on it can report the busy fraction (a quantity
:class:`~repro.types.QueueingResult` carries for the metrics layer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SojournAccumulator"]


@dataclass
class SojournAccumulator:
    """Streaming statistics over completed-job sojourn times.

    Parameters
    ----------
    burn_in:
        Jobs *arriving* before this simulated time are excluded (matching
        the paper's protocol of discarding the warm-up transient).
    """

    burn_in: float = 0.0
    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    # Time-integral of the total number of jobs in the system after burn-in.
    _area: float = 0.0
    # Time-integral of the busy-queue count after burn-in.
    _busy_area: float = 0.0
    _area_start: float = 0.0
    _last_time: float = 0.0
    _last_total: int = 0
    _last_busy: int = 0

    def observe_sojourn(self, arrival_time: float, departure_time: float) -> None:
        """Record one completed job (ignored when it arrived during burn-in)."""
        if departure_time < arrival_time:
            raise ValueError(
                f"departure {departure_time} precedes arrival {arrival_time}"
            )
        if arrival_time < self.burn_in:
            return
        sojourn = departure_time - arrival_time
        self.count += 1
        delta = sojourn - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (sojourn - self._mean)

    def observe_population(
        self, time: float, total_jobs: int, busy_queues: int | None = None
    ) -> None:
        """Record job count (and optionally busy count) after an event.

        Must be called in non-decreasing time order; the time-averages are
        accumulated only past ``burn_in``.  When ``busy_queues`` is given,
        the busy-queue count is integrated too, feeding
        :meth:`mean_busy_queues`.
        """
        if time > self.burn_in:
            effective_last = max(self._last_time, self.burn_in)
            self._area += self._last_total * (time - effective_last)
            if busy_queues is not None:
                self._busy_area += self._last_busy * (time - effective_last)
        self._last_time = time
        self._last_total = total_jobs
        if busy_queues is not None:
            self._last_busy = busy_queues

    @property
    def mean(self) -> float:
        """Mean sojourn time over recorded jobs."""
        if self.count == 0:
            raise ValueError("no sojourn times recorded")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1) of sojourn times."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI for the mean (i.i.d. approximation).

        Sojourn times of nearby jobs are positively correlated, so this
        underestimates the true width; it is reported as a scale indicator,
        not a formal guarantee.
        """
        half = z * math.sqrt(self.variance / max(self.count, 1))
        return (self.mean - half, self.mean + half)

    def mean_total_jobs(self, final_time: float) -> float:
        """Time-averaged total jobs in system between burn-in and
        ``final_time``."""
        if final_time <= self.burn_in:
            raise ValueError("final_time must exceed the burn-in period")
        effective_last = max(self._last_time, self.burn_in)
        area = self._area + self._last_total * (final_time - effective_last)
        return area / (final_time - self.burn_in)

    def mean_busy_queues(self, final_time: float) -> float:
        """Time-averaged busy-queue count between burn-in and ``final_time``.

        Requires ``observe_population`` to have been fed ``busy_queues``;
        divide by the number of queues to obtain the busy fraction.
        """
        if final_time <= self.burn_in:
            raise ValueError("final_time must exceed the burn-in period")
        effective_last = max(self._last_time, self.burn_in)
        area = self._busy_area + self._last_busy * (final_time - effective_last)
        return area / (final_time - self.burn_in)
