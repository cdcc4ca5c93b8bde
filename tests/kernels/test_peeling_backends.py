"""Peeling equivalence: the numpy kernel vs the reference oracle.

The synchronous-round contract (``repro.kernels.peeling``) pins every
observable — success flag, peeled order, core-edge set, round count —
so the two implementations must agree *exactly*, not statistically,
on any input: structured graphs, random hypergraphs from both schemes,
and adversarial edge lists with repeated vertices inside one edge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.kernels import kernel_metrics
from repro.kernels.peeling import sorted_unique
from repro.metrics import MetricsRegistry
from repro.peeling import build_hypergraph, peel, peel_reference
from repro.peeling.hypergraph import Hypergraph


def _graph(edges, n_vertices):
    return Hypergraph(n_vertices=n_vertices, edges=np.asarray(edges))


def _all_outcomes(edges, n_vertices):
    """Decode with the oracle and the kernel."""
    graph = _graph(np.asarray(edges, dtype=np.int64), n_vertices)
    ref = peel_reference(graph)
    outcomes = {"reference": (ref.success, ref.peeled_order, ref.core_edges,
                              ref.rounds)}
    out = peel(graph, backend="numpy")
    outcomes["numpy"] = (out.success, out.peeled_order,
                         np.sort(out.core_edges), out.rounds)
    return outcomes


def _assert_all_equal(outcomes):
    ref = outcomes["reference"]
    for name, got in outcomes.items():
        assert got[0] == ref[0], f"{name}: success mismatch"
        assert np.array_equal(got[1], ref[1]), f"{name}: peeled order mismatch"
        assert np.array_equal(np.sort(got[2]), np.sort(ref[2])), \
            f"{name}: core mismatch"
        assert got[3] == ref[3], f"{name}: rounds mismatch"


class TestStructuredGraphs:
    CASES = [
        ("empty", np.empty((0, 3), dtype=np.int64), 5),
        ("single-edge", [[0, 1, 2]], 4),
        ("chain", [[0, 1, 2], [1, 2, 3], [2, 3, 4]], 5),
        ("duplicate-pair", [[0, 1, 2], [0, 1, 2]], 4),
        ("duplicate-pair-plus-tail", [[0, 1, 2], [0, 1, 2], [2, 3, 4]], 5),
        ("repeated-vertex-edge", [[0, 0, 1]], 3),
        ("repeated-vertex-cancels", [[0, 0, 1], [1, 2, 3]], 4),
        ("two-components", [[0, 1, 2], [3, 4, 5]], 6),
    ]

    @pytest.mark.parametrize("label,edges,n", CASES)
    def test_backends_agree(self, label, edges, n):
        _assert_all_equal(_all_outcomes(np.asarray(edges, dtype=np.int64)
                                        .reshape(-1, 3), n))


class TestRandomHypergraphs:
    @pytest.mark.parametrize("scheme_cls", [FullyRandomChoices,
                                            DoubleHashingChoices])
    @pytest.mark.parametrize("density", [0.4, 0.78, 0.95])
    def test_backends_agree_across_densities(self, scheme_cls, density):
        for seed in range(5):
            n = 256
            graph = build_hypergraph(
                scheme_cls(n, 3), int(density * n), seed=seed
            )
            _assert_all_equal(_all_outcomes(graph.edges, n))

    @pytest.mark.parametrize("d", [2, 4, 5])
    def test_backends_agree_other_edge_sizes(self, d):
        n = 128
        graph = build_hypergraph(FullyRandomChoices(n, d), 80, seed=11)
        _assert_all_equal(_all_outcomes(graph.edges, n))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=24),
        m=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_backends_agree_with_vertex_repeats(self, n, m, seed):
        # Unconstrained uniform rows: edges may repeat a vertex two or
        # three times — the adversarial case for claim bookkeeping.
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=(m, 3), dtype=np.int64)
        _assert_all_equal(_all_outcomes(edges, n))


_INT64 = np.iinfo(np.int64)


class TestSortedUnique:
    """``sorted_unique`` is ``np.unique`` on int64, without its hash table."""

    @staticmethod
    def _assert_matches_unique(values):
        values = np.asarray(values, dtype=np.int64)
        before = values.copy()
        got = sorted_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(values, before)  # the input is not sorted

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [7],
            [5] * 9,
            [-3, -1, -3, -2, -1],
            [_INT64.min, _INT64.max, _INT64.min, 0, _INT64.max],
            [_INT64.max, _INT64.min],
            list(range(20)),
            list(range(20, 0, -1)),
        ],
        ids=["empty", "one", "all-equal", "negatives", "int64-extremes",
             "extremes-pair", "sorted", "reversed"],
    )
    def test_edge_cases(self, values):
        self._assert_matches_unique(values)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=int(_INT64.min), max_value=int(_INT64.max)),
            max_size=64,
        ),
        repeats=st.integers(min_value=1, max_value=3),
        order=st.sampled_from(["as-drawn", "sorted", "reversed"]),
    )
    def test_property_equals_numpy_unique(self, values, repeats, order):
        values = values * repeats
        if order != "as-drawn":
            values = sorted(values, reverse=order == "reversed")
        self._assert_matches_unique(values)

    def test_peel_never_calls_numpy_unique(self, monkeypatch):
        # Every frontier vertex of a lone edge claims it in round one, so
        # the round must dedupe three claims of edge 0; the same holds
        # for the tail of the chain.
        edges = np.array([[0, 1, 2], [3, 4, 5], [5, 6, 7]], dtype=np.int64)
        want = peel_reference(_graph(edges, 8))

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.unique called on a hot path")

        monkeypatch.setattr(np, "unique", refuse)
        got = peel(_graph(edges, 8), backend="numpy")
        assert got.success and want.success
        assert np.array_equal(got.peeled_order, want.peeled_order)
        assert got.rounds == want.rounds


class TestKernelDriver:
    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            peel(_graph(np.zeros((3,), dtype=np.int64), 4))
        with pytest.raises(ConfigurationError):
            peel(_graph(np.zeros((2, 3)), 4))  # float dtype
        with pytest.raises(ConfigurationError):
            peel(_graph([[0, 1, 4]], 4))  # out of range
        with pytest.raises(ConfigurationError):
            peel(_graph([[0, -1, 2]], 4))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            peel(_graph([[0, 1, 2]], 3), backend="cuda")

    def test_numba_request_fails_loudly(self):
        # No silent downgrade to numpy: the request raises before any
        # peeling work and leaves the caller's registry empty.
        metrics = MetricsRegistry()
        graph = build_hypergraph(DoubleHashingChoices(64, 3), 40, seed=5)
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            peel(graph, backend="numba", metrics=metrics)
        snap = metrics.snapshot()
        assert snap["counters"] == {} and snap["events"] == []

    def test_metrics_recorded(self):
        metrics = MetricsRegistry()
        graph = build_hypergraph(FullyRandomChoices(64, 3), 30, seed=9)
        out = peel(graph, backend="numpy", metrics=metrics)
        snap = metrics.snapshot()
        assert snap["counters"]["kernel.calls.numpy"] == 1
        assert snap["counters"]["kernel.edges_peeled"] == out.peeled_order.size
        assert snap["timers"]["kernel.peel_seconds"]["count"] == 1

    def test_global_metrics_default(self):
        before = kernel_metrics().snapshot()["counters"].get(
            "kernel.edges_peeled", 0
        )
        peel(_graph(np.array([[0, 1, 2]], dtype=np.int64), 3))
        after = kernel_metrics().snapshot()["counters"]["kernel.edges_peeled"]
        assert after == before + 1


class TestDecoderFacade:
    def test_peel_matches_reference(self):
        graph = build_hypergraph(DoubleHashingChoices(512, 3), 350, seed=21)
        ref = peel_reference(graph)
        got = peel(graph, backend="numpy")
        assert got.success == ref.success
        assert np.array_equal(got.peeled_order, ref.peeled_order)
        assert np.array_equal(np.sort(got.core_edges),
                              np.sort(ref.core_edges))
        assert got.rounds == ref.rounds

    def test_peel_core_fraction_property(self):
        graph = build_hypergraph(FullyRandomChoices(64, 3), 70, seed=3)
        result = peel(graph)
        assert result.core_fraction == result.core_edges.size / 70
