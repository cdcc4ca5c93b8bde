"""Shared configuration for the benchmark harness.

``BenchScale`` holds the reduced scales the pytest benches run at (see
DESIGN.md §4 for the scale substitutions), and ``attach`` records a
bench's reproduced numbers in its ``extra_info``, so ``--benchmark-json``
output doubles as an experiment record.  The paper tables themselves
are judged by ``python -m repro certify`` (docs/certification.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest


@dataclass(frozen=True)
class BenchScale:
    """Reduced scales used by the benchmark harness."""

    n: int = 2**12          # paper: 2^14..2^18
    trials: int = 50        # paper: 10000
    seed: int = 20140623


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return BenchScale()


@pytest.fixture
def attach(benchmark):
    """Fixture: record reproduced numbers in the benchmark's extra_info."""

    def _attach(**info) -> None:
        for key, value in info.items():
            benchmark.extra_info[key] = repr(value)

    return _attach
