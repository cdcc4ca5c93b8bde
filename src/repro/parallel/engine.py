"""Chunked execution engine: seeded chunks, checkpoints, metrics.

:class:`ExecutionEngine` runs the paper's 10^4-trial sweeps in chunks:

- **Determinism** — the caller hands over the chunk sizes, and chunk
  ``i`` receives the ``i``-th spawned ``SeedSequence`` child, so a
  chunk's result is a function of the task, its size and its child
  alone.  The worker count only schedules: results are the same at any
  ``workers`` — the multiprocessing analogue of MPI rank-indexed RNG
  streams.
- **Fail fast** — nothing is retried, since rerunning a deterministic
  chunk repeats its failure.  The first exception a chunk raises reaches
  the caller with its own type; a killed pool worker raises
  :class:`~concurrent.futures.process.BrokenProcessPool`.
- **Checkpointing** — completed chunk results are appended, as they
  finish, to the JSONL file a ``map_chunks`` call names; rerunning the
  same command, at any worker count, skips the chunks already on disk,
  so recovering from any failure is a rerun.  The file's header identifies the run (chunk sizes, seed, and a
  digest of the pickled worker function and task), and a checkpoint
  from any other run is refused.
- **Observability** — every completed chunk is recorded in a
  :class:`~repro.metrics.MetricsRegistry`, and an optional progress
  callback receives a :class:`ChunkProgress` per chunk.

The work unit is ``func(task, chunk_trials, seed_seq)`` with a picklable
``func``/``task``.  Pooled mode runs it on a spawn-context
:class:`~concurrent.futures.ProcessPoolExecutor`.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import pickle
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TypeVar

import numpy as np

from repro.errors import ConfigurationError
from repro.metrics import MetricsRegistry
from repro.rng import spawn_seeds

__all__ = [
    "ChunkProgress",
    "ExecutionEngine",
    "decode_result",
    "encode_result",
]

T = TypeVar("T")

_CHECKPOINT_KIND = "repro-engine-checkpoint"
_CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ChunkProgress:
    """One progress-callback notification: chunk ``index`` just completed.

    ``done``/``total`` count chunks (including checkpoint-restored ones);
    ``source`` is ``"pool"``, ``"serial"``, or ``"checkpoint"``.
    """

    index: int
    done: int
    total: int
    trials: int
    seconds: float
    source: str


# -- checkpoint result codec ---------------------------------------------


def encode_result(obj: Any) -> Any:
    """JSON-encode a chunk result, round-tripping numpy arrays exactly."""
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, tuple):
        return {"__tuple__": [encode_result(x) for x in obj]}
    if isinstance(obj, list):
        return [encode_result(x) for x in obj]
    if isinstance(obj, dict):
        return {key: encode_result(value) for key, value in obj.items()}
    return obj


def decode_result(obj: Any) -> Any:
    """Inverse of :func:`encode_result`."""
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return np.asarray(obj["__ndarray__"], dtype=np.dtype(obj["dtype"]))
        if "__tuple__" in obj:
            return tuple(decode_result(x) for x in obj["__tuple__"])
        return {key: decode_result(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_result(x) for x in obj]
    return obj


# -- checkpoint file handling --------------------------------------------


def _checkpoint_header(
    func: Callable, task: Any, sizes: list[int], seed: int | None
) -> dict:
    """The header naming one run: its chunking, seed, and work unit.

    ``run`` digests the pickled ``(func, task)`` — for an experiment, the
    scheme, ball count and backend — so a checkpoint written by any
    other run is refused rather than restored.
    """
    run = hashlib.sha256(pickle.dumps((func, task), protocol=5)).hexdigest()
    return {
        "kind": _CHECKPOINT_KIND,
        "version": _CHECKPOINT_VERSION,
        "sizes": sizes,
        "seed": seed,
        "run": run,
    }


def _load_checkpoint(path: Path, expected: dict) -> list[dict] | None:
    """Read completed-chunk records; ``None`` when no file exists yet.

    A header mismatch (different work unit, chunking, or seed) raises —
    silently discarding completed work or mixing incompatible results
    would both be worse.  A torn final line (crash mid-append) is
    tolerated and skipped.
    """
    if not path.exists():
        return None
    records: list[dict] = []
    header: dict | None = None
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail from an interrupted append
        if header is None:
            header = payload
            continue
        records.append(payload)
    if header is None:
        return None  # empty file: treat as fresh
    if header != expected:
        raise ConfigurationError(
            f"checkpoint {path} was written by a different run "
            f"(header {header!r}, expected {expected!r}); delete it or "
            "point the engine at a fresh path"
        )
    return records


def _terminate(pool: ProcessPoolExecutor) -> None:
    """Cancel a failed run's queued chunks and stop its running ones.

    This is what ``terminate_workers()`` does from Python 3.14 on; before
    it, the executor has no public way to stop a call that has started,
    and interpreter exit would wait for every running chunk.
    """
    processes = list(pool._processes.values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()


# -- the engine -----------------------------------------------------------


class ExecutionEngine:
    """Checkpointed, instrumented chunk runner that fails fast.

    Parameters
    ----------
    workers:
        Process count; ``0``/``1`` (the default, as in
        :class:`~repro.experiments.config.ExperimentSpec`) runs serially
        in-process.  A run uses at most one process per chunk.
    metrics:
        Registry receiving counters, timers, and chunk records; a
        private one is created when omitted (reachable via ``.metrics``).
    progress:
        Optional callable receiving a :class:`ChunkProgress` after every
        chunk completion (including checkpoint restores).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        metrics: MetricsRegistry | None = None,
        progress: Callable[[ChunkProgress], None] | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.progress = progress

    def map_chunks(
        self,
        func: Callable[..., T],
        task: Any,
        sizes: Sequence[int],
        *,
        seed: int | None = None,
        checkpoint: str | Path | None = None,
    ) -> list[T]:
        """Run ``func`` once per chunk of ``sizes``; one result per chunk.

        Chunk ``i`` is ``func(task, sizes[i], seed_seq)``, where
        ``seed_seq`` is the ``i``-th child spawned from ``seed``.  Results
        are returned in chunk order regardless of scheduling or
        checkpoint restores, so aggregation downstream is deterministic
        given ``sizes`` and the root ``seed``.

        ``checkpoint`` names this call's JSONL file: each completed
        chunk is appended to it, and a rerun with the same file restores
        them.  Its header names the run (``func``, ``task``, ``sizes``,
        ``seed``), so a file written by any other run is refused.

        Serial mode calls each pending chunk once in-process; pooled mode
        submits them all and checkpoints each result as it completes.
        Either way the first exception propagates unchanged, after the
        chunks completed before it are on disk.
        """
        sizes = list(sizes)
        jobs = [
            (task, size, child)
            for size, child in zip(sizes, spawn_seeds(seed, len(sizes)))
        ]
        total = len(jobs)
        self.metrics.increment("engine.chunks_total", total)
        # Pre-registered so every snapshot has the counter, resumed or not.
        self.metrics.increment("engine.chunks_resumed", 0)

        results: list[Any] = [None] * total
        done = 0
        path = None if checkpoint is None else Path(checkpoint)

        def complete(index: int, result: Any, seconds: float, source: str) -> None:
            nonlocal done
            done += 1
            results[index] = result
            size = sizes[index]
            self.metrics.record_chunk(
                index=index, trials=size, seconds=seconds, source=source
            )
            if source != "checkpoint":
                self.metrics.observe("engine.chunk_seconds", seconds)
                if path is not None:
                    record = {
                        "index": index,
                        "trials": size,
                        "seconds": seconds,
                        "result": encode_result(result),
                    }
                    with path.open("a") as fh:
                        fh.write(json.dumps(record) + "\n")
            if self.progress is not None:
                self.progress(
                    ChunkProgress(
                        index=index,
                        done=done,
                        total=total,
                        trials=size,
                        seconds=seconds,
                        source=source,
                    )
                )

        restored: set[int] = set()
        if path is not None:
            header = _checkpoint_header(func, task, sizes, seed)
            records = _load_checkpoint(path, header)
            if records is None:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(header) + "\n")
            for record in records or []:
                index = record["index"]
                if 0 <= index < total and index not in restored:
                    restored.add(index)
                    complete(index, decode_result(record["result"]), 0.0, "checkpoint")
                    self.metrics.increment("engine.chunks_resumed")

        pending = [i for i in range(total) if i not in restored]
        if self.workers > 1 and len(pending) > 1:
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(pending)),
                mp_context=mp.get_context("spawn"),
            )
            try:
                futures = {pool.submit(func, *jobs[i]): i for i in pending}
                # A pooled chunk's seconds run from the previous completion,
                # so they add up to the pool's wall clock.
                start = time.perf_counter()
                for future in as_completed(futures):
                    result = future.result()  # re-raises the chunk's error
                    now = time.perf_counter()
                    complete(futures[future], result, now - start, "pool")
                    start = now
            except BaseException:
                _terminate(pool)
                raise
            pool.shutdown()
        else:
            for index in pending:
                start = time.perf_counter()
                result = func(*jobs[index])
                complete(index, result, time.perf_counter() - start, "serial")
        return results
