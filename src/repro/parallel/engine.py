"""Resilient chunked execution engine: retries, checkpoints, metrics.

:class:`ExecutionEngine` is the fault-tolerant chunk runner for the
paper's 10^4-trial sweeps:

- **Fault tolerance** — each chunk is retried up to
  :attr:`EngineConfig.max_retries` times with exponential backoff, and a
  failed chunk is re-run on its *original* ``SeedSequence`` child, so the
  aggregate result is bit-identical to an uninterrupted run with the same
  root seed.  A per-chunk timeout (pooled mode) bounds the damage of a
  hung worker, and any pool-level breakage degrades gracefully to serial
  in-process execution of the remaining chunks.
- **Checkpointing** — completed chunk summaries are appended to a JSONL
  file as they finish; a re-run with the same geometry, chunking, and
  seed skips the chunks already on disk.
- **Observability** — every completion, retry, timeout, and degradation
  is published to a :class:`~repro.metrics.MetricsRegistry`, and an
  optional progress callback receives a :class:`ChunkProgress` per chunk.

The work unit is ``func(task, chunk_trials, seed_seq)`` with a picklable
``func``/``task``; every chunk receives its own spawned ``SeedSequence``
child, so results are reproducible from the root seed regardless of
scheduling — the multiprocessing analogue of MPI rank-indexed RNG
streams.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TypeVar

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.metrics import MetricsRegistry
from repro.rng import spawn_seeds

__all__ = [
    "ChunkProgress",
    "EngineConfig",
    "ExecutionEngine",
    "decode_result",
    "encode_result",
]

T = TypeVar("T")

_CHECKPOINT_KIND = "repro-engine-checkpoint"
_CHECKPOINT_VERSION = 1

# Exceptions that mean the *pool* (not the chunk function) is unhealthy;
# they trigger degradation to serial execution rather than a chunk retry.
_POOL_FAILURES = (OSError, EOFError, mp.ProcessError)


@dataclass(frozen=True)
class EngineConfig:
    """Execution policy for :class:`ExecutionEngine`.

    Attributes
    ----------
    workers:
        Process count; ``None`` uses :func:`~repro.parallel.pool.default_workers`,
        ``0``/``1`` runs serially in-process.
    chunks:
        Chunk count; ``None`` defaults to the worker count (or 4 when
        serial, so the chunked code path is still exercised).
    max_retries:
        Extra attempts per chunk after the first failure.
    retry_backoff:
        Sleep before the first retry, in seconds; doubles per retry.
    chunk_timeout:
        Wall-clock bound per chunk in pooled mode.  A timeout terminates
        the pool (a hung worker cannot be cancelled individually) and the
        remaining chunks run serially.  Not enforced in serial mode.
    checkpoint_path:
        JSONL file for chunk summaries; enables resume.
    """

    workers: int | None = None
    chunks: int | None = None
    max_retries: int = 2
    retry_backoff: float = 0.25
    chunk_timeout: float | None = None
    checkpoint_path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.chunks is not None and self.chunks < 1:
            raise ConfigurationError(f"chunks must be positive, got {self.chunks}")
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ConfigurationError(
                f"chunk_timeout must be positive, got {self.chunk_timeout}"
            )


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


def _checkpoint_header(trials: int, chunks: int, seed: int | None) -> dict:
    return {
        "kind": _CHECKPOINT_KIND,
        "version": _CHECKPOINT_VERSION,
        "trials": trials,
        "chunks": chunks,
        "seed": seed,
    }


def _load_checkpoint(
    path: Path, *, trials: int, chunks: int, seed: int | None
) -> list[dict] | None:
    """Read completed-chunk records; ``None`` when no file exists yet.

    A header mismatch (different geometry, chunking, or seed) raises —
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
    expected = _checkpoint_header(trials, chunks, seed)
    if header != expected:
        raise ConfigurationError(
            f"checkpoint {path} was written by a different run "
            f"(header {header!r}, expected {expected!r}); delete it or "
            "point the engine at a fresh path"
        )
    return records


class _CheckpointWriter:
    """Append-only JSONL writer; writes the header on a fresh file."""

    def __init__(
        self,
        path: Path,
        *,
        trials: int,
        chunks: int,
        seed: int | None,
        fresh: bool,
    ) -> None:
        self._path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        if fresh:
            path.write_text(
                json.dumps(_checkpoint_header(trials, chunks, seed)) + "\n"
            )

    def append(self, record: dict) -> None:
        with self._path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
            fh.flush()


def _invoke(args: tuple) -> Any:
    """Unpack one job tuple: ``(func, task, trials, seed_seq[, offset])``.

    The optional fifth element is the chunk's global trial offset
    (``map_chunks(..., offsets=True)``), used by trial-indexed work such
    as the parallel-trials mode.
    """
    func, task, chunk_trials, seed_seq, *rest = args
    return func(task, chunk_trials, seed_seq, *rest)


# -- the engine -----------------------------------------------------------


class ExecutionEngine:
    """Fault-tolerant, checkpointed, instrumented chunk runner.

    Parameters
    ----------
    config:
        Execution policy; defaults to :class:`EngineConfig` defaults.
    metrics:
        Registry receiving counters, timers, chunk records, and events;
        a private one is created when omitted (reachable via ``.metrics``).
    progress:
        Optional callable receiving a :class:`ChunkProgress` after every
        chunk completion (including checkpoint restores).
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        progress: Callable[[ChunkProgress], None] | None = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.progress = progress

    def map_chunks(
        self,
        func: Callable[..., T],
        task: Any,
        trials: int,
        *,
        seed: int | None = None,
        offsets: bool = False,
    ) -> list[T]:
        """Run ``func`` over partitioned trials; one result per chunk.

        Results are returned in chunk order regardless of scheduling,
        retries, or checkpoint restores, so aggregation downstream is
        deterministic given the root ``seed``.  With ``offsets=True``
        each call also receives the chunk's global trial offset as a
        fourth argument — ``func(task, chunk_trials, seed_seq, offset)``
        — so trial-indexed work (parallel-trials mode) addresses the
        same per-trial streams under any chunking.
        """
        from repro.parallel.pool import default_workers, partition_trials

        cfg = self.config
        workers = cfg.workers if cfg.workers is not None else default_workers()
        chunk_count = (
            cfg.chunks
            if cfg.chunks is not None
            else (workers if workers > 1 else min(4, max(trials, 1)))
        )
        sizes = [s for s in partition_trials(trials, chunk_count) if s > 0]
        seeds = spawn_seeds(seed, len(sizes))
        if offsets:
            starts = [0] * len(sizes)
            for i in range(1, len(sizes)):
                starts[i] = starts[i - 1] + sizes[i - 1]
            jobs = [
                (func, task, size, s, off)
                for size, s, off in zip(sizes, seeds, starts)
            ]
        else:
            jobs = [(func, task, size, s) for size, s in zip(sizes, seeds)]
        total = len(jobs)
        self.metrics.increment("engine.chunks_total", total)
        # Pre-register the fault counters so every snapshot has a stable
        # schema, retries or not.
        for counter in (
            "engine.retries",
            "engine.timeouts",
            "engine.serial_fallbacks",
            "engine.chunks_resumed",
        ):
            self.metrics.increment(counter, 0)

        results: list[Any] = [None] * total
        done = [False] * total
        self._done_count = 0
        self._writer = None

        if cfg.checkpoint_path is not None:
            path = Path(cfg.checkpoint_path)
            restored = _load_checkpoint(
                path, trials=trials, chunks=total, seed=seed
            )
            for record in restored or []:
                index = record["index"]
                if 0 <= index < total and not done[index]:
                    results[index] = decode_result(record["result"])
                    done[index] = True
                    self._complete(
                        index,
                        trials=record["trials"],
                        attempts=0,
                        seconds=0.0,
                        source="checkpoint",
                        total=total,
                        write=False,
                    )
                    self.metrics.increment("engine.chunks_resumed")
            self._writer = _CheckpointWriter(
                path,
                trials=trials,
                chunks=total,
                seed=seed,
                fresh=restored is None,
            )

        pending = [i for i in range(total) if not done[i]]
        if not pending:
            return results
        if workers > 1 and len(pending) > 1:
            self._run_pooled(workers, pending, jobs, results, total)
        else:
            for index in pending:
                results[index] = self._run_serial(
                    index, jobs[index], cfg.max_retries + 1, total
                )
        return results

    # -- completion bookkeeping ------------------------------------------

    def _complete(
        self,
        index: int,
        *,
        trials: int,
        attempts: int,
        seconds: float,
        source: str,
        total: int,
        result: Any = None,
        write: bool = True,
    ) -> None:
        self._done_count += 1
        self.metrics.record_chunk(
            index=index,
            trials=trials,
            attempts=attempts,
            seconds=seconds,
            source=source,
        )
        if write and self._writer is not None:
            self._writer.append(
                {
                    "index": index,
                    "trials": trials,
                    "attempts": attempts,
                    "seconds": seconds,
                    "result": encode_result(result),
                }
            )
        if self.progress is not None:
            self.progress(
                ChunkProgress(
                    index=index,
                    done=self._done_count,
                    total=total,
                    trials=trials,
                    seconds=seconds,
                    source=source,
                )
            )

    # -- serial execution (also the degradation target) ------------------

    def _run_serial(self, index: int, job: tuple, budget: int, total: int) -> Any:
        """Run one chunk in-process with up to ``budget`` attempts."""
        if budget < 1:
            raise SimulationError(
                f"chunk {index} exhausted its retry budget before serial re-run"
            )
        cfg = self.config
        delay = cfg.retry_backoff
        start = time.perf_counter()
        for attempt in range(1, budget + 1):
            try:
                with self.metrics.timer("engine.chunk_seconds"):
                    result = _invoke(job)
            except Exception as exc:
                self.metrics.event(
                    "chunk-error",
                    chunk=index,
                    attempt=attempt,
                    error=repr(exc),
                    where="serial",
                )
                if attempt == budget:
                    raise SimulationError(
                        f"chunk {index} failed after {attempt} attempt(s): {exc!r}"
                    ) from exc
                self.metrics.increment("engine.retries")
                if delay > 0:
                    time.sleep(delay)
                delay *= 2
            else:
                elapsed = time.perf_counter() - start
                self._complete(
                    index,
                    trials=job[2],
                    attempts=attempt,
                    seconds=elapsed,
                    source="serial",
                    total=total,
                    result=result,
                )
                return result
        raise AssertionError("unreachable")  # pragma: no cover

    # -- pooled execution -------------------------------------------------

    def _run_pooled(
        self,
        workers: int,
        pending: list[int],
        jobs: list[tuple],
        results: list[Any],
        total: int,
    ) -> None:
        cfg = self.config
        ctx = mp.get_context("spawn")
        pool = ctx.Pool(processes=min(workers, len(pending)))
        degraded = False
        try:
            asyncs = {i: pool.apply_async(_invoke, (jobs[i],)) for i in pending}
            for index in pending:
                if degraded:
                    results[index] = self._run_serial(
                        index, jobs[index], cfg.max_retries + 1, total
                    )
                    continue
                attempts = 0
                delay = cfg.retry_backoff
                start = time.perf_counter()
                while True:
                    attempts += 1
                    try:
                        result = asyncs[index].get(timeout=cfg.chunk_timeout)
                    except mp.TimeoutError:
                        self.metrics.increment("engine.timeouts")
                        self.metrics.event(
                            "chunk-timeout",
                            chunk=index,
                            attempt=attempts,
                            timeout=cfg.chunk_timeout,
                        )
                        # A hung pool worker cannot be cancelled on its
                        # own: tear the pool down and finish serially.
                        degraded = self._degrade(pool, "timeout")
                        results[index] = self._run_serial(
                            index,
                            jobs[index],
                            cfg.max_retries + 1 - attempts,
                            total,
                        )
                        break
                    except _POOL_FAILURES as exc:
                        self.metrics.event(
                            "pool-failure", chunk=index, error=repr(exc)
                        )
                        degraded = self._degrade(pool, "pool-failure")
                        results[index] = self._run_serial(
                            index,
                            jobs[index],
                            cfg.max_retries + 2 - attempts,
                            total,
                        )
                        break
                    except Exception as exc:
                        # The chunk function raised inside a healthy
                        # worker: retry on the same seed child.
                        self.metrics.event(
                            "chunk-error",
                            chunk=index,
                            attempt=attempts,
                            error=repr(exc),
                            where="pool",
                        )
                        if attempts > cfg.max_retries:
                            raise SimulationError(
                                f"chunk {index} failed after {attempts} "
                                f"attempt(s): {exc!r}"
                            ) from exc
                        self.metrics.increment("engine.retries")
                        if delay > 0:
                            time.sleep(delay)
                        delay *= 2
                        try:
                            asyncs[index] = pool.apply_async(
                                _invoke, (jobs[index],)
                            )
                        except Exception:
                            degraded = self._degrade(pool, "resubmit-failure")
                            results[index] = self._run_serial(
                                index,
                                jobs[index],
                                cfg.max_retries + 1 - attempts,
                                total,
                            )
                            break
                    else:
                        elapsed = time.perf_counter() - start
                        results[index] = result
                        self.metrics.observe("engine.chunk_seconds", elapsed)
                        self._complete(
                            index,
                            trials=jobs[index][2],
                            attempts=attempts,
                            seconds=elapsed,
                            source="pool",
                            total=total,
                            result=result,
                        )
                        break
        finally:
            pool.terminate()
            pool.join()

    def _degrade(self, pool, reason: str) -> bool:
        """Tear down a sick pool; remaining chunks run serially."""
        self.metrics.increment("engine.serial_fallbacks")
        self.metrics.event("degraded-to-serial", reason=reason)
        pool.terminate()
        pool.join()
        return True
