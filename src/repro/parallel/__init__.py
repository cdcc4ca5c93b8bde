"""Multi-process fan-out of independent simulation trials.

Follows the structure the HPC guides recommend for Python: vectorize inside
a process (numpy lock-step trials), parallelize across processes with
independent, deterministically spawned random streams.  The API mirrors an
MPI scatter/gather over trial chunks but uses ``multiprocessing`` so the
library has no extra dependencies.

:class:`~repro.parallel.engine.ExecutionEngine` is the one front door:
``map_chunks`` scatters trial chunks with spawned seed streams and
gathers their results, adding per-chunk retries with exponential
backoff, timeouts, graceful degradation to serial execution, JSONL
checkpointing with resume, and metrics/progress instrumentation (see
``docs/engine.md``).
"""

from repro.parallel.engine import ChunkProgress, EngineConfig, ExecutionEngine
from repro.parallel.pool import default_workers, partition_trials

__all__ = [
    "ChunkProgress",
    "EngineConfig",
    "ExecutionEngine",
    "default_workers",
    "partition_trials",
]
