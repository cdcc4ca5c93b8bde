"""Batched flat-array peeling kernel (2-core computation).

Peeling repeatedly removes edges incident to a degree-1 vertex until only
the hypergraph's 2-core remains — the decoding process of erasure codes
and invertible Bloom lookup tables, and the workload of the follow-up
paper ([30], Mitzenmacher–Thaler) whose threshold experiments this
repository reproduces.  This module is the contract home and the numpy
kernel; :func:`repro.peeling.decoder.peel_reference` is the slow
executable specification the kernel is pinned against.

**Process contract** (normative — kernel and oracle must match it exactly):

1. State is two flat per-vertex accumulators built from the ``(m, d)``
   edge array: ``degree[v]`` counts incidences (an edge hitting a vertex
   twice contributes 2) and ``edge_sum[v]`` sums the shifted ids
   ``e + 1`` of incident edges, multiplicity included (the shift makes
   edge 0 distinguishable from "empty").  A degree-1 vertex's sum
   therefore *is* its unique remaining edge — no adjacency lists exist
   anywhere.  No other vertex's accumulator is ever read, so any
   algebra in which one remaining id reads back as itself gives the
   same process: the reference oracle keeps XOR; the kernel sums,
   because ``np.add.at`` scatters several times faster than
   ``np.bitwise_xor.at``.
2. Peeling proceeds in **synchronous rounds**.  A round's frontier is
   the set of vertices with degree exactly 1 at round start; each
   frontier vertex claims the edge ``edge_sum[v] - 1``.  The round peels
   the *distinct* claimed edges in increasing edge-id order (several
   frontier vertices may claim one edge; it peels once).  Removing an
   edge decrements the degree and subtracts the id from every
   incidence, multiplicity included.
3. ``rounds`` counts the synchronous generations that peeled at least
   one edge — the parallel depth of the process (O(log n) below the
   density-evolution threshold).  ``peeled_order`` concatenates the
   per-round batches, so it is identical to the oracle's; ``success``
   is "every edge peeled", and ``core_edges`` lists the 2-core in
   ascending id order.

Vertices within an edge may repeat (double hashing over a composite
modulus, or with-replacement schemes): a repeated incidence adds the id
twice and 2 to the degree, so such an edge can never be recovered
*through* that vertex — exactly the multiplicity-aware semantics of the
reference decoder.

The numpy backend materializes the contract with ``np.bincount`` /
``np.add.at`` accumulator builds and per-round vectorized
claim/dedupe/scatter steps over a worklist of touched vertices — no
per-edge Python.  Throughput versus the reference decoder is tracked in
``BENCH_peeling.json`` (see ``benchmarks/bench_peeling.py`` and
``docs/peeling.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError

__all__ = [
    "PeelResult",
    "build_accumulators",
    "peel_arrays_numpy",
    "sorted_unique",
    "validate_edges",
]


@dataclass(frozen=True)
class PeelResult:
    """Outcome of peeling a hypergraph: the four contract observables.

    Attributes
    ----------
    success:
        True when every edge was peeled (the 2-core is empty).
    peeled_order:
        Edge ids in recovery order (ascending within each round).
    core_edges:
        Ascending ids of the edges stuck in the 2-core.
    rounds:
        Synchronous rounds that peeled at least one edge (the parallel
        depth of the process; grows like O(log n) below threshold).
    """

    success: bool
    peeled_order: np.ndarray
    core_edges: np.ndarray
    rounds: int

    @property
    def core_fraction(self) -> float:
        """Fraction of edges stuck in the core."""
        total = len(self.peeled_order) + len(self.core_edges)
        return len(self.core_edges) / total if total else 0.0


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, flattened.

    Returns the same array as a bare ``numpy.unique(values)``, from one
    ``np.sort`` and an adjacent-difference mask.  numpy 2.3 and later
    answer a bare ``unique`` of integers with a hash table and then
    sort its output, which on int64 is several times slower than
    sorting outright, and dozens of times slower on 10^6 62-bit keys
    (see ``docs/performance.md``).
    """
    out = np.sort(values, axis=None)
    if out.size > 1:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def validate_edges(edges: np.ndarray, n_vertices: int) -> np.ndarray:
    """Check an edge array against the kernel contract; returns it as int64.

    ``edges`` must be a 2-D ``(m, d)`` integer array whose entries lie in
    ``[0, n_vertices)``.  Raises
    :class:`~repro.errors.ConfigurationError` otherwise — an
    out-of-range vertex would silently corrupt the flat accumulators.
    """
    edges = np.asarray(edges)
    if edges.ndim != 2:
        raise ConfigurationError(
            f"edges must be a 2-D (m, d) array, got shape {edges.shape}"
        )
    if not np.issubdtype(edges.dtype, np.integer):
        raise ConfigurationError(
            f"edges must be an integer array, got dtype {edges.dtype}"
        )
    if n_vertices < 1:
        raise ConfigurationError(
            f"n_vertices must be positive, got {n_vertices}"
        )
    if edges.size and (
        int(edges.min()) < 0 or int(edges.max()) >= n_vertices
    ):
        raise ConfigurationError(
            f"edge vertices must lie in [0, {n_vertices}); got range "
            f"[{int(edges.min())}, {int(edges.max())}]"
        )
    if edges.dtype != np.int64:
        edges = edges.astype(np.int64)
    return edges


def build_accumulators(
    edges: np.ndarray, n_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized build of the ``(degree, edge_sum)`` accumulator pair.

    One ``np.bincount`` over the flattened incidences plus one int64
    ``np.add.at`` scatter of the shifted edge ids per edge column — the
    flat-array replacement for the historical O(m·d) pure-Python double
    loop.
    """
    m = edges.shape[0]
    degree = np.bincount(edges.ravel(), minlength=n_vertices).astype(np.int64)
    edge_sum = np.zeros(n_vertices, dtype=np.int64)
    ids = np.arange(1, m + 1, dtype=np.int64)
    for col in edges.T:
        np.add.at(edge_sum, col, ids)
    return degree, edge_sum


def peel_arrays_numpy(edges: np.ndarray, n_vertices: int) -> PeelResult:
    """Peel ``edges`` to the 2-core with the vectorized numpy backend.

    Implements the module contract with no per-edge Python: accumulator
    build via :func:`build_accumulators`, then per round one fancy-gather
    of the frontier's claimed edges, one :func:`sorted_unique` dedupe
    (which also yields the contract's ascending peel order), and
    ``np.subtract.at`` scatters of the degree and the shifted ids over
    the incidences of the peeled batch.  The next frontier is read off
    the touched vertices only, so per-round cost is proportional to the
    work actually done.

    Parameters
    ----------
    edges:
        ``(m, d)`` int64 vertex array (validate with
        :func:`validate_edges` first; :func:`repro.peeling.peel` does).
    n_vertices:
        Vertex-space size.

    Returns
    -------
    PeelResult
        The four contract observables.
    """
    m = edges.shape[0]
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return PeelResult(True, empty, empty.copy(), 0)
    degree, edge_sum = build_accumulators(edges, n_vertices)
    alive = np.ones(m, dtype=bool)
    peeled_batches: list[np.ndarray] = []
    rounds = 0
    # Worklist: vertices whose degree may have just become 1.  Duplicates
    # are harmless (duplicate claims collapse in the dedupe below).
    frontier = np.flatnonzero(degree == 1)
    while frontier.size:
        batch = sorted_unique(edge_sum[frontier] - 1)
        if batch.size and (
            batch[0] < 0 or batch[-1] >= m or not alive[batch].all()
        ):
            # Unreachable for well-formed accumulators: a degree-1
            # vertex's sum is always one alive edge.  Guarded so state
            # corruption fails loudly instead of peeling garbage.
            raise SimulationError(
                "peeling invariant violated: a degree-1 vertex claimed a "
                "dead or out-of-range edge"
            )
        alive[batch] = False
        peeled_batches.append(batch)
        rounds += 1
        rows = edges[batch]
        touched = rows.ravel()
        np.subtract.at(degree, touched, 1)
        ids = batch + 1
        for col in rows.T:
            np.subtract.at(edge_sum, col, ids)
        frontier = touched[degree[touched] == 1]
    peeled_order = (
        np.concatenate(peeled_batches)
        if peeled_batches
        else np.empty(0, dtype=np.int64)
    )
    core = np.flatnonzero(alive)
    return PeelResult(core.size == 0, peeled_order, core, rounds)
