"""Peeling decoder (2-core computation): reference oracle + kernel wrapper.

Peeling repeatedly finds a vertex of degree 1, "recovers" its unique
incident edge, and removes that edge (decrementing the degrees of its other
vertices) — the decoding procedure of erasure codes and invertible Bloom
lookup tables.  Peeling succeeds when every edge is removed, i.e. the
hypergraph's 2-core is empty.

Two implementations live behind one result type:

- :func:`peel_reference` — the slow, obviously-correct executable
  specification of the synchronous-round contract (per-vertex degree
  counter + XOR of incident edge ids; a degree-1 vertex's XOR *is* its
  remaining edge, so no adjacency lists are needed).
- :func:`peel` — a thin wrapper over the batched flat-array kernel
  (:func:`repro.kernels.run_peeling_kernel`), exactly equivalent to the
  oracle on success, peel order, core-edge set, and round count; the
  contract itself is documented in :mod:`repro.kernels.peeling`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.peeling.hypergraph import Hypergraph

__all__ = ["PeelResult", "peel", "peel_reference"]


@dataclass(frozen=True)
class PeelResult:
    """Outcome of peeling a hypergraph.

    Attributes
    ----------
    success:
        True when every edge was peeled (empty 2-core).
    peeled_order:
        Edge ids in the order they were recovered (ascending within each
        synchronous round — deterministic and backend-independent).
    core_edges:
        Ids of edges left in the 2-core (empty on success).
    rounds:
        Number of synchronous peeling rounds (parallel-depth of the
        process; grows like O(log n) below threshold).
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


def peel_reference(graph: Hypergraph) -> PeelResult:
    """Peel ``graph`` to its 2-core with the reference (oracle) decoder.

    The executable specification of the synchronous-round contract in
    :mod:`repro.kernels.peeling`: each round's frontier is the set of
    degree-1 vertices at round start, the round peels the distinct
    claimed edges in ascending edge-id order, and ``rounds`` counts the
    generations that peeled at least one edge.  The per-round body is
    deliberately plain Python (small sets, explicit loops) — slow, but
    easy to audit; the accumulator build is vectorized so the oracle
    itself handles m = 10^6 inside CI (satellite of ISSUE 8).

    Edges with repeated vertices contribute their multiplicity to that
    vertex's degree (an edge incident to a vertex twice can never be
    recovered through it once the degree logic is multiplicity-aware;
    XOR-ing the edge id twice cancels, which handles this correctly).
    """
    n, m = graph.n_vertices, graph.n_edges
    degree = np.zeros(n, dtype=np.int64)
    edge_xor = np.zeros(n, dtype=np.int64)
    if m:
        flat = graph.edges.ravel()
        degree = np.bincount(flat, minlength=n).astype(np.int64)
        # Shift ids so edge 0 is XOR-distinguishable from "empty".
        ids = np.repeat(np.arange(1, m + 1, dtype=np.int64), graph.d)
        np.bitwise_xor.at(edge_xor, flat, ids)

    alive = np.ones(m, dtype=bool)
    peeled: list[int] = []
    frontier = [int(v) for v in np.flatnonzero(degree == 1)]
    rounds = 0
    while frontier:
        # Distinct claimed edges, peeled in ascending id order.
        batch = sorted({int(edge_xor[v]) - 1 for v in frontier})
        touched: list[int] = []
        for e in batch:
            alive[e] = False
            peeled.append(e)
            for u in graph.edges[e]:
                degree[u] -= 1
                edge_xor[u] ^= e + 1
                touched.append(int(u))
        rounds += 1
        # Next frontier is read only after the whole round's removals
        # (two same-round edges may share a vertex, dropping it to 0).
        frontier = [u for u in touched if degree[u] == 1]

    core = np.flatnonzero(alive)
    return PeelResult(
        success=core.size == 0,
        peeled_order=np.array(peeled, dtype=np.int64),
        core_edges=core,
        rounds=rounds,
    )


def peel(graph: Hypergraph, *, backend=None, metrics=None) -> PeelResult:
    """Peel ``graph`` to its 2-core through a kernel backend.

    Thin wrapper over :func:`repro.kernels.run_peeling_kernel` (explicit
    ``backend`` > ``REPRO_BACKEND`` env > ``"numpy"``); exactly
    equivalent to :func:`peel_reference` on every observable.  ``metrics``
    optionally receives the kernel timer/counters.
    """
    from repro.kernels import run_peeling_kernel

    outcome = run_peeling_kernel(
        graph.edges, graph.n_vertices, backend=backend, metrics=metrics
    )
    return PeelResult(
        success=outcome.success,
        peeled_order=outcome.peeled_order,
        core_edges=outcome.core_edges,
        rounds=outcome.rounds,
    )
