"""Peeling decoder (2-core computation): reference oracle + kernel entry point.

Peeling repeatedly finds a vertex of degree 1, "recovers" its unique
incident edge, and removes that edge (decrementing the degrees of its other
vertices) — the decoding procedure of erasure codes and invertible Bloom
lookup tables.  Peeling succeeds when every edge is removed, i.e. the
hypergraph's 2-core is empty.

Two implementations return one result type,
:class:`~repro.kernels.peeling.PeelResult`:

- :func:`peel_reference` — the slow, obviously-correct executable
  specification of the synchronous-round contract (per-vertex degree
  counter + XOR of incident edge ids; a degree-1 vertex's XOR *is* its
  remaining edge, so no adjacency lists are needed).
- :func:`peel` — the entry point: it validates the edges and runs the
  batched flat-array kernel :func:`repro.kernels.peeling.peel_arrays_numpy`,
  exactly equivalent to the oracle on success, peel order, core-edge
  set, and round count; the contract itself is documented in
  :mod:`repro.kernels.peeling`.

The kernel keeps a wrapping int64 *sum* of the incident ids where the
oracle keeps their XOR.  Only degree-1 vertices are ever read, and one
remaining id reads back as itself under either algebra; the oracle
keeps XOR on purpose, so the kernel-vs-oracle suite checks that the
kernel's algebra changes no observable.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import kernel_metrics, resolve_backend
from repro.kernels.peeling import PeelResult, peel_arrays_numpy, validate_edges
from repro.metrics import MetricsRegistry
from repro.peeling.hypergraph import Hypergraph

__all__ = ["PeelResult", "peel", "peel_reference"]


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


def peel(
    graph: Hypergraph,
    *,
    backend: str | None = None,
    metrics: MetricsRegistry | None = None,
) -> PeelResult:
    """Peel ``graph`` to its 2-core through the numpy kernel.

    Exactly equivalent to :func:`peel_reference` on every observable
    under the contract of :mod:`repro.kernels.peeling`.

    Parameters
    ----------
    graph:
        The hypergraph; its ``(m, d)`` edge array must hold integer
        vertex ids in ``[0, n_vertices)`` (vertices may repeat within an
        edge), else :class:`~repro.errors.ConfigurationError`.
    backend:
        Kernel-backend name (``"numpy"``); None resolves via
        ``REPRO_BACKEND``, then ``"numpy"``.
    metrics:
        Registry receiving ``kernel.peel_seconds``,
        ``kernel.edges_peeled`` and ``kernel.calls.numpy`` (the global
        kernel registry by default).
    """
    edges = validate_edges(graph.edges, graph.n_vertices)
    impl = resolve_backend(backend)
    registry = metrics if metrics is not None else kernel_metrics()
    with registry.timer("kernel.peel_seconds"):
        result = peel_arrays_numpy(edges, graph.n_vertices)
    registry.increment("kernel.edges_peeled", int(result.peeled_order.size))
    registry.increment(f"kernel.calls.{impl.name}", 1)
    return result
