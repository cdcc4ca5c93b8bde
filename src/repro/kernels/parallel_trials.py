"""Parallel-trials placement: independent per-trial counter streams.

The chunked engine (:mod:`repro.core.runner`) parallelizes across
*processes*, with every trial of a chunk sharing one generator.  This
module is the giant-``n`` alternative: every trial owns an independent
counter-based RNG stream (:func:`repro.kernels.blockrng.trial_seed` →
splitmix64), so trials can run in any interleaving — trial-by-trial in
one process or spread over process-pool chunks — and produce **identical
results** (*seed-equivalence*, pinned by
``tests/kernels/test_parallel_trials.py``).

Two execution paths, chosen by geometry alone:

- **Fused path** (:func:`fused_parallel_supported`): power-of-two
  double hashing with random ties.  Ball ``b`` of a trial consumes
  exactly two splitmix64 draws — counters ``2b`` and ``2b+1`` of the
  trial's stream: the first supplies ``f`` (``log2 n`` bits) and the odd
  stride ``g`` (``log2 n - 1`` bits), the second up to six 10-bit tie
  keys.  Placement compares ``load << key_shift | tie << cidx_bits |
  bin`` exactly like the packed kernels, so the path reuses
  :class:`~repro.kernels.numpy_backend.NumpyBackend` on per-trial packed
  arrays — bit-identical to a scalar sequential walk of the same keys by
  the packed-kernel equivalence proof.
- **Generic path**: any other scheme/tie rule runs one
  :func:`~repro.core.vectorized.simulate_batch` call per trial, seeded
  with the trial's own ``SeedSequence`` child.  Slower, but the same
  per-trial stream on every host.

Whether the decision lands fused or generic depends **only** on the
scheme type and geometry — never on worker count — so a run's results
are a pure function of ``(root seed, spec)``.

Memory model (see ``docs/scale.md``): each in-flight trial owns one
O(``n_bins``) load table — the irreducible chain state — while
aggregation works on per-trial histograms whose auxiliary passes are
segmented into :func:`default_shards` slices of the table, keeping
scratch O(``n_bins / shards``).  The shard count never changes results.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.hashing.base import ChoiceScheme
from repro.hashing.double_hashing import DoubleHashingChoices
from repro.kernels.blockrng import splitmix64_block, trial_seed
from repro.kernels.generate import _RANDOM_TIE_BITS, KernelLayout
from repro.kernels.numpy_backend import choose_window

__all__ = [
    "PLACEMENT_TIE_BITS",
    "default_shards",
    "fused_parallel_supported",
    "run_parallel_trials",
]

#: Tie-key width of the parallel fused path (same as the packed layouts).
PLACEMENT_TIE_BITS = _RANDOM_TIE_BITS

#: Per-trial max-load budget of the fused path.  A max load at or beyond
#: this is impossible for any sane d >= 2 geometry and raises
#: SimulationError rather than truncating silently.
_HIST_CAP = 4096

#: Aggregation passes over a load table are segmented at this element
#: count: tables where ``n_bins * d`` stays within the historical int32
#: packed address space run unsharded by default.
_SHARD_ELEMENTS = 1 << 23

_U64 = np.uint64


def default_shards(n_bins: int, d: int) -> int:
    """Shard count keeping each aggregation slice in the packed space.

    Stays at 1 until ``n_bins * d`` exceeds 2**23.
    """
    return max(1, -(-(n_bins * d) // _SHARD_ELEMENTS))


def fused_parallel_supported(scheme: ChoiceScheme, tie_break: str) -> bool:
    """Whether the two-draw fused counter-stream path applies.

    A pure function of scheme type and geometry — deliberately
    independent of worker count and chunking, so the fused/generic
    decision (and therefore every result bit) is identical on every host.
    """
    n = scheme.n_bins
    return (
        type(scheme) is DoubleHashingChoices
        and tie_break == "random"
        and n >= 2
        and n & (n - 1) == 0
        and scheme.d * PLACEMENT_TIE_BITS <= 64
    )


def _fused_layout(n: int, d: int) -> KernelLayout:
    """The packed layout of the fused path."""
    cidx_bits = n.bit_length()  # bins_p = n + 1 values, n = 2**lb
    return KernelLayout(
        n_bins=n,
        d=d,
        tie_break="random",
        tie_bits=PLACEMENT_TIE_BITS,
        cidx_bits=cidx_bits,
        trial_chunk=1,
        key_shift=PLACEMENT_TIE_BITS + cidx_bits,
        wide=True,
    )


def _sharded_histogram(loads: np.ndarray, shards: int) -> np.ndarray:
    """Histogram of one trial's load table, in O(n/shards) slices."""
    n = loads.shape[0]
    seg = max(1, -(-n // shards))
    hist = np.zeros(1, np.int64)
    for s0 in range(0, n, seg):
        part = np.bincount(loads[s0 : s0 + seg])
        if part.size > hist.size:
            part[: hist.size] += hist
            hist = part
        else:
            hist[: part.size] += part
    return hist


def _stack_rows(rows: list[np.ndarray], trials: int) -> np.ndarray:
    """Pad per-trial histogram rows to a common width and stack them."""
    width = max((r.size for r in rows), default=1)
    out = np.zeros((trials, width), np.int64)
    for i, row in enumerate(rows):
        out[i, : row.size] = row
    return out


def _fused_trial_numpy(
    key: int,
    n_balls: int,
    layout: KernelLayout,
    impl,
    ws,
    work: np.ndarray,
    block: int,
) -> None:
    """One trial of the fused path via the packed numpy kernel.

    Generates the packed candidates from the trial's splitmix64 counter
    stream (vectorized, superblocks of ``block`` balls) and places them
    with the out-of-order commit kernel — bit-identical to a scalar
    sequential walk of the same keys.
    """
    n = layout.n_bins
    d = layout.d
    lb = n.bit_length() - 1
    n_mask = _U64(n - 1)
    half_mask = _U64(n // 2 - 1)
    tie_mask = _U64((1 << PLACEMENT_TIE_BITS) - 1)
    work[:] = 0
    for b0 in range(0, n_balls, block):
        steps = min(block, n_balls - b0)
        raws = splitmix64_block(key, 2 * b0, 2 * steps)
        ra = raws[0::2]
        rb = raws[1::2]
        f = (ra & n_mask).astype(np.int64)
        g = ((ra >> _U64(lb)) & half_mask).astype(np.int64)
        g += g
        g += 1
        pc = np.empty((d, 1, steps + 1), np.int64)
        pc[:, 0, steps] = n  # dummy ball -> dummy bin
        cur = f
        for j in range(d):
            if j:
                cur += g
                cur &= n - 1
            tie = ((rb >> _U64(j * PLACEMENT_TIE_BITS)) & tie_mask).astype(
                np.int64
            )
            pc[j, 0, :steps] = (tie << layout.cidx_bits) | cur
        impl.place(work, pc, layout=layout, workspace=ws)


def run_parallel_trials(
    scheme: ChoiceScheme,
    n_balls: int,
    trials: int,
    *,
    root: int,
    trial_offset: int = 0,
    tie_break: str = "random",
    block: int = 4096,
    backend: str | None = None,
    metrics=None,
) -> np.ndarray:
    """Run ``trials`` trials on independent per-trial streams.

    Trial ``i`` (globally indexed ``trial_offset + i``) draws from the
    stream keyed by ``trial_seed(root, trial_offset + i)`` — results
    depend only on ``(root, global index)``, never on chunking or host.
    Returns the ``(trials, width)`` per-trial histogram matrix (the
    engine transport format; feed to
    :meth:`repro.core.stats.StreamingLoadAggregator.update_histograms`).

    Parameters
    ----------
    scheme, n_balls, tie_break, block:
        As in :func:`~repro.core.vectorized.simulate_batch`.
    root:
        Root entropy shared by every chunk of the run (resolve ``None``
        seeds to a concrete integer *before* fanning out).
    trial_offset:
        Global index of this chunk's first trial.
    backend:
        Kernel-backend name (``"numpy"``), or None for env resolution.
    metrics:
        Optional :class:`~repro.metrics.MetricsRegistry`.
    """
    from repro.kernels import kernel_metrics, resolve_backend

    if n_balls < 0:
        raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")
    if trials < 1:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if trial_offset < 0:
        raise ConfigurationError(
            f"trial_offset must be non-negative, got {trial_offset}"
        )
    if tie_break not in ("random", "left"):
        raise ConfigurationError(
            f"tie_break must be 'random' or 'left', got {tie_break!r}"
        )
    n = scheme.n_bins
    d = scheme.d
    shards = default_shards(n, d)
    registry = metrics if metrics is not None else kernel_metrics()
    impl = resolve_backend(backend)

    if fused_parallel_supported(scheme, tie_break):
        layout = _fused_layout(n, d)
        load_cap = min(_HIST_CAP, 1 << layout.load_bits)
        ws = impl.make_workspace(
            d=d,
            trials=1,
            # A call holds one superblock: wider slots would be dummies.
            window=min(choose_window(n, d, 1), block),
            bins_p=layout.bins_p,
            dtype=layout.dtype,
        )
        work = np.zeros(layout.bins_p, np.int32)
        rows = []
        with registry.timer("kernel.parallel_trials_seconds"):
            for i in range(trials):
                _fused_trial_numpy(
                    trial_seed(root, trial_offset + i), n_balls, layout,
                    impl, ws, work, block,
                )
                table = work[:n]
                top = int(table.max(initial=0))
                if top >= load_cap:
                    raise SimulationError(
                        f"per-trial max load {top} exceeds the fused "
                        f"parallel path's load budget ({load_cap}); "
                        "results discarded"
                    )
                rows.append(_sharded_histogram(table, shards))
        out = _stack_rows(rows, trials)
    else:
        from repro.core.vectorized import simulate_batch

        rows = []
        with registry.timer("kernel.parallel_trials_seconds"):
            for i in range(trials):
                ss = np.random.SeedSequence(
                    entropy=root, spawn_key=(trial_offset + i,)
                )
                batch = simulate_batch(
                    scheme,
                    n_balls,
                    1,
                    seed=np.random.default_rng(ss),
                    tie_break=tie_break,
                    block=block,
                    backend=backend,
                    metrics=metrics,
                )
                rows.append(_sharded_histogram(batch.loads[0], shards))
        out = _stack_rows(rows, trials)

    registry.increment("kernel.parallel_trials", trials)
    registry.increment(f"kernel.calls.parallel-{impl.name}", 1)
    return out
