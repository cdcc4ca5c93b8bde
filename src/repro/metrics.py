"""Lightweight metrics and tracing for experiment runs.

The execution engine (:mod:`repro.parallel.engine`), the experiment
runner and the kernels publish what they do — counter totals, timers,
per-chunk records, time series — into a :class:`MetricsRegistry`.  The
registry is deliberately tiny: plain dicts and lists, a context-manager
timer, and a JSON snapshot, so a 10^4-trial sweep can be observed
mid-flight without pulling in an external telemetry stack.

Schema of :meth:`MetricsRegistry.snapshot` (also what ``--metrics-out``
writes; see ``docs/engine.md`` for the field-by-field reference)::

    {
      "counters": {name: number, ...},
      "timers":   {name: {"count", "total", "min", "max", "mean"}, ...},
      "chunks":   [{"index", "trials", "seconds", "source"}, ...],
      "events":   [{"kind", "time", ...extra fields}, ...],
      "series":   {name: [{"time", ...sample fields}, ...], ...}
    }

``series`` is the time-series sink: ordered samples of evolving state
(e.g. the service layer's p99/p999/max-load-over-time SLO records),
appended via :meth:`MetricsRegistry.sample`.  Unlike ``events`` — a single
interleaved trace log — each series is its own ordered list, so consumers
can plot one without filtering.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = ["MetricsRegistry", "TimerStats", "global_registry"]


@dataclass
class TimerStats:
    """Streaming summary of one named timer: count / total / min / max."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.minimum = min(self.minimum, seconds)
        self.maximum = max(self.maximum, seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Counters, timers, per-chunk records, and a trace-event log.

    Thread-safe (a single lock guards every mutation) so a progress
    callback or a future threaded backend can share one registry with
    the engine.  All reads return copies.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._timers: dict[str, TimerStats] = {}
        self._events: list[dict] = []
        self._chunks: list[dict] = []
        self._series: dict[str, list[dict]] = {}

    # -- counters ---------------------------------------------------------

    def increment(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def get_counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- timers -----------------------------------------------------------

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration sample under the named timer."""
        with self._lock:
            self._timers.setdefault(name, TimerStats()).observe(seconds)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager tracing the wall-clock of its body.

        >>> registry = MetricsRegistry()
        >>> with registry.timer("work"):
        ...     pass
        >>> registry.snapshot()["timers"]["work"]["count"]
        1
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- events and chunk records ----------------------------------------

    def event(self, kind: str, **fields) -> None:
        """Append a timestamped trace event of the given ``kind``."""
        with self._lock:
            self._events.append({"kind": kind, "time": time.time(), **fields})

    def record_chunk(
        self,
        *,
        index: int,
        trials: int,
        seconds: float,
        source: str,
    ) -> None:
        """Record the completion of one engine chunk.

        ``source`` is ``"pool"``, ``"serial"``, or ``"checkpoint"``.
        """
        with self._lock:
            self._chunks.append(
                {
                    "index": index,
                    "trials": trials,
                    "seconds": seconds,
                    "source": source,
                }
            )

    # -- time series ------------------------------------------------------

    def sample(self, series: str, **fields) -> None:
        """Append one sample to the named time series.

        Samples are stamped with wall-clock ``time`` and kept in append
        order; a series is the right sink for evolving state observed at
        intervals (tail-load SLO samples, queue depths), where ``event``
        is for one-off occurrences.

        >>> registry = MetricsRegistry()
        >>> registry.sample("slo", ops=1000, max_load=3)
        >>> registry.snapshot()["series"]["slo"][0]["max_load"]
        3
        """
        with self._lock:
            self._series.setdefault(series, []).append(
                {"time": time.time(), **fields}
            )

    def get_series(self, series: str) -> list[dict]:
        """Samples of one series, in append order (copies; [] if absent)."""
        with self._lock:
            return [dict(s) for s in self._series.get(series, [])]

    @property
    def events(self) -> list[dict]:
        with self._lock:
            return [dict(e) for e in self._events]

    @property
    def chunks(self) -> list[dict]:
        with self._lock:
            return [dict(c) for c in self._chunks]

    # -- export -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Full JSON-ready snapshot of every counter, timer, and record."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "timers": {k: t.to_dict() for k, t in self._timers.items()},
                "chunks": [dict(c) for c in self._chunks],
                "events": [dict(e) for e in self._events],
                "series": {
                    k: [dict(s) for s in v] for k, v in self._series.items()
                },
            }

    def save(self, path: str | Path) -> None:
        """Write the snapshot as pretty-printed JSON."""
        Path(path).write_text(json.dumps(self.snapshot(), indent=2, sort_keys=True))


_global_registry: MetricsRegistry | None = None
_global_lock = threading.Lock()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (created on first use).

    Library layers that have no caller-supplied registry — most notably
    the kernels in :mod:`repro.kernels`, whose timers and counters must be
    observable even from code that never constructs a registry — publish
    here.  Runs that pass an explicit registry are unaffected.
    """
    global _global_registry
    with _global_lock:
        if _global_registry is None:
            _global_registry = MetricsRegistry()
        return _global_registry
