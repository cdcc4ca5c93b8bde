"""Two-party set reconciliation over a symmetric-difference IBLT.

The classic IBLT application (Eppstein–Goodrich–Uyeda–Varghese, "What's
the Difference?"): two parties each hold millions of keyed items whose
sets differ in only a small delta.  Each builds an
:class:`~repro.extensions.iblt.IBLT` with *identical* geometry and hash
seeds, sized for the expected difference (not the set size!); one table
crosses the wire; the receiver subtracts its own and peels the result.
Shared items cancel cell-by-cell, so the difference table holds exactly
the symmetric difference — listing recovers each delta item with a sign
(+1 = only the local party has it, −1 = only the remote one).

Recovery succeeds exactly when the delta's key-cell hypergraph has an
empty 2-core, so the peeling thresholds of
:mod:`repro.peeling.density_evolution` govern the required table size:
``cells ≳ |Δ| / c*_d`` plus slack.  This driver exercises the
repository's central question at that layer — double-hashed cell choice
(two hash evaluations per key) versus fully-random (``d`` evaluations) —
including the duplicate-edge caveat: in double mode two delta keys
collide onto an identical cell set with probability Θ(1/m), leaving an
O(1) unpeelable residue that the report surfaces rather than hiding
(see :mod:`repro.peeling.experiment` and ``docs/peeling.md``).

Everything is array-shaped: item generation, table builds
(``insert_many``), subtraction, and listing (``list_entries_batched``)
touch no per-key Python, so millions of items reconcile in seconds;
``benchmarks/bench_peeling.py`` records the throughput trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro.errors import ConfigurationError
from repro.extensions.iblt import IBLT
from repro.kernels.peeling import sorted_unique
from repro.peeling.density_evolution import peeling_threshold
from repro.rng import default_generator

__all__ = [
    "ReconcileResult",
    "default_cells",
    "make_parties",
    "reconcile",
    "run_reconciliation",
]

#: Sizing slack over the density-evolution bound ``|Δ| / c*_d`` — the
#: thresholds are asymptotic; finite tables need headroom (and a floor
#: for tiny deltas where the asymptotics say nothing).
_SLACK = 1.35
_MIN_CELLS = 64


def default_cells(n_diff: int, d: int) -> int:
    """Table size for an expected difference of ``n_diff`` keys.

    ``slack · n_diff / c*_d``, rounded up to a power of two — the
    power-of-two shape keeps the double mode's stride a unit (odd), so
    the ``d`` cells of any key are always distinct.
    """
    if n_diff < 0:
        raise ConfigurationError(f"n_diff must be non-negative, got {n_diff}")
    want = max(_MIN_CELLS, int(np.ceil(_SLACK * n_diff / peeling_threshold(d))))
    return 1 << (want - 1).bit_length()


@dataclass(frozen=True)
class ReconcileResult:
    """Outcome of one two-party reconciliation.

    Attributes
    ----------
    success:
        True when the recovered delta matches the planted one exactly
        (both directions, keys and values).
    only_in_a, only_in_b:
        Recovered delta keys per direction (sign +1 / −1), sorted.
    missed, spurious:
        Planted-but-unrecovered and recovered-but-unplanted key counts
        (both 0 on success; nonzero ``missed`` below threshold is the
        double-mode duplicate-cell-set signature).
    residue_cells:
        Nonempty cells left after peeling (0 on success).
    rounds:
        Synchronous peeling rounds the listing took.
    n_items, n_diff, cells, d, mode, seed:
        The workload geometry, echoed for reports.
    build_seconds, reconcile_seconds:
        Wall-clock split: table builds vs subtract + peel (the recovery
        path a deployment would actually pay per sync).
    """

    success: bool
    only_in_a: np.ndarray
    only_in_b: np.ndarray
    missed: int
    spurious: int
    residue_cells: int
    rounds: int
    n_items: int
    n_diff: int
    cells: int
    d: int
    mode: str
    seed: int
    build_seconds: float
    reconcile_seconds: float

    @property
    def items_per_second(self) -> float:
        """End-to-end throughput: items held per total wall-clock second."""
        total = self.build_seconds + self.reconcile_seconds
        return self.n_items / total if total > 0 else 0.0

    @property
    def delta_per_second(self) -> float:
        """Recovery throughput: delta keys per subtract+peel second."""
        if self.reconcile_seconds <= 0:
            return 0.0
        return (self.only_in_a.size + self.only_in_b.size) / self.reconcile_seconds


def make_parties(
    n_items: int, n_diff: int, *, seed: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generate two key sets differing in exactly ``n_diff`` keys.

    Returns ``(keys_a, keys_b, a_only, b_only)``: a shared base of
    ``n_items − ceil(n_diff/2)`` keys plus disjoint per-party tails
    (``a_only`` gets the larger half for odd deltas).  Keys are distinct
    uniform draws from the 62-bit range: the sorted distinct draws
    (:func:`~repro.kernels.peeling.sorted_unique`) are topped up with
    fresh draws until there are enough — at millions of keys a collision
    is already ~10⁻⁶-rare.
    """
    for name, value in (("n_items", n_items), ("n_diff", n_diff)):
        # bool is an Integral too; numpy integers count as integers.
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if n_items < 1:
        raise ConfigurationError(f"n_items must be positive, got {n_items}")
    if n_diff < 0:
        raise ConfigurationError(f"n_diff must be non-negative, got {n_diff}")
    a_extra = (n_diff + 1) // 2
    b_extra = n_diff // 2
    if a_extra > n_items:
        raise ConfigurationError(
            f"n_diff={n_diff} too large for n_items={n_items}"
        )
    rng = default_generator(seed)
    want = n_items + b_extra
    keys = sorted_unique(rng.integers(0, 1 << 62, size=want, dtype=np.int64))
    while keys.size < want:
        extra = rng.integers(0, 1 << 62, size=want - keys.size, dtype=np.int64)
        keys = sorted_unique(np.concatenate([keys, extra]))
    keys = rng.permutation(keys[:want])
    shared = keys[: n_items - a_extra]
    a_only = np.sort(keys[n_items - a_extra : n_items])
    b_only = np.sort(keys[n_items : n_items + b_extra])
    keys_a = np.concatenate([shared, a_only])
    keys_b = np.concatenate([shared, b_only])
    return keys_a, keys_b, a_only, b_only


def _values_for(keys: np.ndarray) -> np.ndarray:
    """Deterministic per-key values (checkable after recovery)."""
    return (keys * 2654435761) & ((1 << 62) - 1)


def reconcile(
    table_a: IBLT, table_b: IBLT
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Recover the symmetric difference of two same-seed tables.

    Returns ``(only_in_a, only_in_b, residue_cells, rounds)`` — the
    sign-split keys of ``table_a − table_b`` after peeling.  The inputs
    are not modified (subtraction builds a fresh table).
    """
    diff = table_a.subtract(table_b)
    listing = diff.list_entries_batched()
    only_a = np.sort(listing.keys[listing.signs > 0])
    only_b = np.sort(listing.keys[listing.signs < 0])
    return only_a, only_b, listing.residue_cells, listing.rounds


def run_reconciliation(
    n_items: int,
    n_diff: int,
    *,
    d: int = 3,
    mode: str = "double",
    cells: int | None = None,
    seed: int | None = None,
) -> ReconcileResult:
    """Run one full two-party reconciliation and verify the recovery.

    Parameters
    ----------
    n_items:
        Items per party (the sets share all but ``n_diff`` keys).
    n_diff:
        Symmetric-difference size (split across the parties).
    d:
        Cells per key.
    mode:
        ``"double"`` or ``"random"`` cell selection (the central
        comparison; see the module docstring for the caveat).
    cells:
        IBLT size; defaults to :func:`default_cells` — sized by the
        *delta*, independent of ``n_items``.
    seed:
        Seeds item generation; hash functions use ``seed + 1`` (shared
        by both parties, as the protocol requires).
    """
    if cells is None:
        cells = default_cells(n_diff, d)
    base_seed = 0 if seed is None else int(seed)
    keys_a, keys_b, a_only, b_only = make_parties(
        n_items, n_diff, seed=base_seed
    )

    t0 = time.perf_counter()
    table_a = IBLT(cells, d, mode=mode, seed=base_seed + 1)
    table_b = IBLT(cells, d, mode=mode, seed=base_seed + 1)
    table_a.insert_many(keys_a, _values_for(keys_a))
    table_b.insert_many(keys_b, _values_for(keys_b))
    build_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    only_a, only_b, residue, rounds = reconcile(table_a, table_b)
    reconcile_seconds = time.perf_counter() - t1

    planted_a = set(a_only.tolist())
    planted_b = set(b_only.tolist())
    got_a = set(only_a.tolist())
    got_b = set(only_b.tolist())
    missed = len(planted_a - got_a) + len(planted_b - got_b)
    spurious = len(got_a - planted_a) + len(got_b - planted_b)
    return ReconcileResult(
        success=missed == 0 and spurious == 0 and residue == 0,
        only_in_a=only_a,
        only_in_b=only_b,
        missed=missed,
        spurious=spurious,
        residue_cells=residue,
        rounds=rounds,
        n_items=int(n_items),
        n_diff=int(n_diff),
        cells=int(cells),
        d=int(d),
        mode=mode,
        seed=base_seed,
        build_seconds=build_seconds,
        reconcile_seconds=reconcile_seconds,
    )
