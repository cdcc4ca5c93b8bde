"""The keyed store: live multiple-choice placement addressed by key.

:class:`KeyedStore` is the repo's production-shaped façade over the
paper's process: items are placed by *hashing their keys* through a keyed
double-hashing scheme (two hash computations per key — the paper's pitch),
per-bin load state is live, and insert/delete/lookup streams are processed
in vectorized batches.

Placement semantics
-------------------
``insert_many`` places each batch in **micro-batches** (default 2048
keys): the candidate loads of one micro-batch are gathered against a
single load snapshot, every key joins its least-loaded candidate
(ties to the lowest-index choice, i.e. asymmetric/left — deterministic),
and the increments are applied before the next micro-batch.  Keys inside
one micro-batch therefore do not see each other's placements — the batch
model of balanced allocations, which is exactly how concurrent routers
behave between state syncs.  ``micro_batch=1`` recovers the strictly
sequential process.  Given the hash functions (``seed``) and the input
stream, placement is fully deterministic: no per-ball randomness exists
anywhere on this path.

State
-----
Per-bin loads are a flat int64 vector; the key→bin assignment lives in a
flat open-addressed kernel map (:mod:`repro.kernels.keymap` — the service
layer eating the paper's own double-hashing medicine), selected through
the usual explicit > ``REPRO_BACKEND`` > ``"numpy"`` registry via
``backend`` (``"reference"`` recovers the demoted per-key dict path, the
oracle the kernel is tested exactly equal to).  Because speculative load
increments happen for *every* key of a batch — reinserts included — and
are only rolled back afterwards, the placement loop is independent of
reinsert status, and the whole batch resolves through **one**
``insert_many`` kernel call.  Re-inserting a live key is idempotent
(the existing placement wins; the speculative increment is rolled back
and counted under ``reinserts``).  Deleting an absent key is counted
under ``delete_misses`` and reported as bin ``-1`` (or raises, with the
store untouched, under ``missing="error"``).

Tail-SLO observability
----------------------
:meth:`KeyedStore.record_slo` pushes a ``{ops, size, max_load, p50, p99,
p999}`` sample onto a :class:`repro.metrics.MetricsRegistry` time series
(p-quantiles are over the per-bin load vector — the tail a load balancer's
SLO cares about).  Pass ``slo_interval`` to sample automatically every so
many operations.

Sharding
--------
:meth:`KeyedStore.merge` combines two stores built from the *same* hash
functions (checked via scheme fingerprints) over disjoint key sets into a
new store — deterministic and associative, so shard states can be merged
in any grouping (see :mod:`repro.service.shard`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.keyed import KeyedChoices, _as_key_array
from repro.hashing.registry import make_keyed_scheme
from repro.kernels.keymap import NOT_FOUND, make_keymap
from repro.metrics import MetricsRegistry, global_registry

__all__ = ["KeyedStore", "DEFAULT_MICRO_BATCH", "histogram_quantiles"]

#: Keys placed per load-snapshot micro-batch.  Large enough that the
#: per-micro-batch numpy dispatch overhead amortizes (the gather/argmin/
#: scatter costs ~3 ops of this length), small enough that the snapshot
#: staleness stays far below one ball per bin for the default geometries.
DEFAULT_MICRO_BATCH = 2048

#: The tail-SLO quantiles every sample reports (p50, p99, p999).
SLO_QUANTILES = (0.5, 0.99, 0.999)

_COUNTERS = (
    "inserts",
    "deletes",
    "lookups",
    "reinserts",
    "delete_misses",
    "lookup_misses",
)


def histogram_quantiles(loads, qs=SLO_QUANTILES) -> tuple[float, ...]:
    """Quantiles of a non-negative integer load vector, from its histogram.

    Returns exactly what numpy's ``quantile(loads, qs)`` (linear
    method) returns, without sorting or partitioning the vector: one
    ``bincount`` pass, then each order statistic is found by
    ``searchsorted`` over the cumulative counts, and the pair around
    each virtual index ``(n - 1) * q`` is blended with numpy's own
    interpolation formula.  The histogram has ``max(loads) + 1`` bins,
    which for a load vector is at most the number of stored keys.
    """
    loads = np.asarray(loads)
    q = np.asarray(qs, dtype=np.float64)
    if not ((q >= 0) & (q <= 1)).all():
        raise ValueError("Quantiles must be in the range [0, 1]")
    n = loads.size
    cum = np.cumsum(np.bincount(loads))
    virtual = (n - 1) * q
    lo = np.floor(virtual)
    t = virtual - lo
    k = lo.astype(np.intp)
    a = np.searchsorted(cum, k, side="right")
    b = np.searchsorted(cum, np.minimum(k + 1, n - 1), side="right")
    diff = b - a
    out = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    return tuple(float(x) for x in out)


class KeyedStore:
    """A keyed dictionary/router placing items via keyed double hashing.

    Parameters
    ----------
    n_bins:
        Number of bins (servers, slots).
    d:
        Choices per key (the paper's headline case is 2).
    scheme:
        Registry name resolved via
        :func:`repro.hashing.registry.make_keyed_scheme` (explicit >
        ``REPRO_SCHEME`` env > ``"double"`` when ``None``), or an existing
        :class:`~repro.hashing.keyed.KeyedChoices` instance (shards share
        one instance so their placements are mergeable).
    seed, rng:
        Construction-time randomness for the hash-family draws; at most
        one may be given, and both are ignored when ``scheme`` is already
        an instance.
    micro_batch:
        Keys per load-snapshot micro-batch (see module docstring).
    backend:
        Assignment-map backend (``"reference"`` or ``"numpy"``) resolved
        through :func:`repro.kernels.keymap.resolve_keymap_backend`;
        ``None`` follows ``REPRO_BACKEND``, then ``"numpy"``.
    expected_keys:
        Presize the assignment map for this many live keys, keeping
        amortized rehashes out of the serving path (it still grows on
        demand).
    slo_interval:
        Record an SLO sample automatically every this many operations
        (``None`` — the default — samples only on explicit
        :meth:`record_slo` calls).
    metrics:
        Registry receiving counters/timers/SLO series (global by default).
    series:
        Name of the SLO time series in the registry.
    """

    def __init__(
        self,
        n_bins: int,
        d: int = 2,
        *,
        scheme: str | KeyedChoices | None = None,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        micro_batch: int = DEFAULT_MICRO_BATCH,
        backend: str | None = None,
        expected_keys: int = 0,
        slo_interval: int | None = None,
        metrics: MetricsRegistry | None = None,
        series: str = "service.slo",
    ) -> None:
        if micro_batch < 1:
            raise ConfigurationError(
                f"micro_batch must be positive, got {micro_batch}"
            )
        if slo_interval is not None and slo_interval < 1:
            raise ConfigurationError(
                f"slo_interval must be positive, got {slo_interval}"
            )
        if isinstance(scheme, KeyedChoices):
            if scheme.n_bins != n_bins or scheme.d != d:
                raise ConfigurationError(
                    f"scheme geometry ({scheme.n_bins}, {scheme.d}) does not "
                    f"match store geometry ({n_bins}, {d})"
                )
            self.keyed = scheme
        else:
            self.keyed = make_keyed_scheme(scheme, n_bins, d, rng=rng, seed=seed)
        self.n_bins = int(n_bins)
        self.d = int(d)
        self.micro_batch = int(micro_batch)
        self.slo_interval = slo_interval
        self.series = series
        self.loads = np.zeros(self.n_bins, dtype=np.int64)
        self._metrics = metrics if metrics is not None else global_registry()
        self._map = make_keymap(
            expected=expected_keys, backend=backend, metrics=self._metrics
        )
        self.backend = self._map.backend
        self.counters: dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        self._ops = 0
        self._ops_at_last_sample = 0

    # -- inspection -------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of live keys."""
        return self._map.size

    @property
    def ops(self) -> int:
        """Total operations processed (inserts + deletes + lookups)."""
        return self._ops

    @property
    def assignments(self) -> tuple[np.ndarray, np.ndarray]:
        """Live ``(keys, bins)`` int64 arrays, sorted by key.

        Built directly from the kernel map's flat storage (no Python
        lists); the key sort makes the order deterministic across
        backends, whose physical slot layouts differ.
        """
        keys, bins = self._map.items()
        order = np.argsort(keys, kind="stable")
        return keys[order], bins[order]

    def load_quantiles(self, qs=SLO_QUANTILES) -> tuple[float, ...]:
        """Quantiles of the per-bin load vector (the SLO tail view)."""
        return histogram_quantiles(self.loads, qs)

    def describe(self) -> str:
        """One-line description used in reports."""
        return (
            f"KeyedStore({self.keyed.describe()}, size={self.size}, "
            f"micro_batch={self.micro_batch}, backend={self.backend})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()

    # -- operations -------------------------------------------------------

    def _place(self, keys: np.ndarray) -> np.ndarray:
        """Least-loaded placement with speculative increments for all keys.

        Returns the chosen bin per key under micro-batch snapshot
        semantics.  ``d == 2`` runs on contiguous planar choice rows with
        a branch-free pick (ties to the first choice — exactly what
        ``argmin`` does); other ``d`` take the generic argmin path.  Both
        are bit-identical to the historical per-batch loop.
        """
        n_keys = keys.size
        bins = np.empty(n_keys, dtype=np.int64)
        loads = self.loads
        mb = self.micro_batch
        if self.d == 2:
            planes = self.keyed.choices_planar(keys)
            c0, c1 = planes[0], planes[1]
            for lo in range(0, n_keys, mb):
                b0 = c0[lo : lo + mb]
                b1 = c1[lo : lo + mb]
                picks = loads[b1] < loads[b0]
                chosen = np.where(picks, b1, b0)
                np.add.at(loads, chosen, 1)
                bins[lo : lo + mb] = chosen
        else:
            choices = self.keyed.choices(keys)
            for lo in range(0, n_keys, mb):
                block = choices[lo : lo + mb]
                rows = np.arange(block.shape[0])
                picks = np.argmin(loads[block], axis=1)
                chosen = block[rows, picks]
                np.add.at(loads, chosen, 1)
                bins[lo : lo + mb] = chosen
        return bins

    def insert_many(self, keys) -> np.ndarray:
        """Place a batch of keys; returns the assigned bin per key.

        Each key joins the least-loaded of its ``d`` hashed candidates
        under micro-batch snapshot semantics (see module docstring).
        Re-inserted live keys keep their existing bin.
        """
        keys = _as_key_array(keys)
        n_keys = keys.size
        if n_keys == 0:
            return np.empty(0, dtype=np.int64)
        with self._metrics.timer("service.insert_seconds"):
            bins = self._place(keys)
            # One kernel call for the whole batch: set-default resolves
            # reinserts (and intra-batch duplicates) to the stored bin,
            # whose speculative increment is then rolled back.
            prev = self._map.insert_many(keys, bins)
            reins = prev != NOT_FOUND
            if reins.any():
                np.subtract.at(self.loads, bins[reins], 1)
                self.counters["reinserts"] += int(np.count_nonzero(reins))
                bins = np.where(reins, prev, bins)
        self.counters["inserts"] += n_keys
        self._ops += n_keys
        self._metrics.increment("service.inserts", n_keys)
        self._maybe_sample()
        return bins

    def delete_many(self, keys, *, missing: str = "ignore") -> np.ndarray:
        """Remove a batch of keys; returns the freed bin per key.

        Absent keys yield bin ``-1`` and are counted under
        ``delete_misses``; with ``missing="error"`` the call raises
        :class:`KeyError` instead, leaving the store untouched.
        """
        if missing not in ("ignore", "error"):
            raise ConfigurationError(
                f"missing must be 'ignore' or 'error', got {missing!r}"
            )
        keys = _as_key_array(keys)
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        with self._metrics.timer("service.delete_seconds"):
            if missing == "error":
                found = self._map.lookup_many(keys)
                absent = np.flatnonzero(found == NOT_FOUND)
                if absent.size:
                    raise KeyError(int(keys[absent[0]]))
            out = self._map.delete_many(keys)
            freed = out != NOT_FOUND
            n_freed = int(np.count_nonzero(freed))
            if n_freed:
                np.subtract.at(self.loads, out[freed], 1)
            misses = keys.size - n_freed
        self.counters["deletes"] += n_freed
        self.counters["delete_misses"] += misses
        self._ops += keys.size
        self._metrics.increment("service.deletes", n_freed)
        if misses:
            self._metrics.increment("service.delete_misses", misses)
        self._maybe_sample()
        return out

    def lookup_many(self, keys) -> np.ndarray:
        """Current bin per key (``-1`` for keys not in the store)."""
        keys = _as_key_array(keys)
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        with self._metrics.timer("service.lookup_seconds"):
            out = self._map.lookup_many(keys)
            misses = int(np.count_nonzero(out == NOT_FOUND))
        self.counters["lookups"] += keys.size
        self.counters["lookup_misses"] += misses
        self._ops += keys.size
        self._metrics.increment("service.lookups", keys.size)
        self._maybe_sample()
        return out

    # -- SLO sampling -----------------------------------------------------

    def record_slo(self) -> dict:
        """Record one tail-SLO sample onto the metrics time series.

        Returns the sample (also appended to ``metrics`` under
        ``self.series``): total ops so far, live size, max load, and the
        p50/p99/p999 of the per-bin load vector.
        """
        p50, p99, p999 = self.load_quantiles()
        sample = {
            "ops": self._ops,
            "size": self.size,
            "max_load": int(self.loads.max(initial=0)),
            "p50": p50,
            "p99": p99,
            "p999": p999,
        }
        self._metrics.sample(self.series, **sample)
        self._ops_at_last_sample = self._ops
        return sample

    def _maybe_sample(self) -> None:
        if (
            self.slo_interval is not None
            and self._ops - self._ops_at_last_sample >= self.slo_interval
        ):
            self.record_slo()

    # -- shard merge ------------------------------------------------------

    def merge(self, other: "KeyedStore") -> "KeyedStore":
        """Combine two shard states into a new store (associative).

        Both stores must be built from the same hash functions (equal
        scheme fingerprints) and hold disjoint key sets; loads, the
        assignment, and the operation counters are combined.  The SLO
        series is not merged — the merged store starts a fresh one.
        """
        if not isinstance(other, KeyedStore):
            raise ConfigurationError(
                f"can only merge KeyedStore, got {type(other).__name__}"
            )
        if (self.n_bins, self.d) != (other.n_bins, other.d):
            raise ConfigurationError(
                f"geometry mismatch: ({self.n_bins}, {self.d}) vs "
                f"({other.n_bins}, {other.d})"
            )
        if self.keyed.fingerprint() != other.keyed.fingerprint():
            raise ConfigurationError(
                "cannot merge shards built from different hash functions "
                f"({self.keyed.describe()} vs {other.keyed.describe()})"
            )
        merged = KeyedStore(
            self.n_bins,
            self.d,
            scheme=self.keyed,
            micro_batch=self.micro_batch,
            backend=self.backend,
            expected_keys=self.size + other.size,
            slo_interval=self.slo_interval,
            metrics=self._metrics,
            series=self.series,
        )
        for shard in (self, other):
            keys, bins = shard._map.items()
            if keys.size:
                prior = merged._map.insert_many(keys, bins)
                if (prior != NOT_FOUND).any():
                    raise ConfigurationError(
                        "cannot merge shards with overlapping keys"
                    )
        np.add(self.loads, other.loads, out=merged.loads)
        for name in _COUNTERS:
            merged.counters[name] = self.counters[name] + other.counters[name]
        merged._ops = self._ops + other._ops
        return merged
