"""Multi-process fan-out of independent simulation trials.

Follows the structure the HPC guides recommend for Python: vectorize inside
a process (numpy lock-step trials), parallelize across processes with
independent, deterministically spawned random streams.  The API mirrors an
MPI scatter/gather over trial chunks but uses the standard library's
``concurrent.futures`` so the library has no extra dependencies.

:class:`~repro.parallel.engine.ExecutionEngine` is the one front door:
``map_chunks`` scatters trial chunks with spawned seed streams and
gathers their results, with JSONL checkpointing and metrics/progress
instrumentation.  :func:`chunk_sizes` fixes a run's chunks from its
trials and bins alone, so the worker count never changes a result.  The
first failure propagates with its own type, and rerunning with the
checkpoint resumes the run (see ``docs/engine.md``).
"""

from repro.parallel.engine import ChunkProgress, ExecutionEngine
from repro.parallel.pool import chunk_sizes, partition_trials

__all__ = ["ChunkProgress", "ExecutionEngine", "chunk_sizes", "partition_trials"]
