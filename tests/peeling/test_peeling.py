"""Tests for the peeling subpackage (hypergraphs, decoder, density
evolution, and the duplicate-edge phenomenon)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify.anchors import anchor_value
from repro.errors import ConfigurationError
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.peeling import (
    build_hypergraph,
    core_edge_fraction,
    peel,
    peeling_threshold,
    survival_fixed_point,
    threshold_experiment,
)
from repro.peeling import density_evolution
from repro.peeling.hypergraph import Hypergraph


class TestHypergraph:
    def test_shape_and_density(self):
        g = build_hypergraph(DoubleHashingChoices(128, 3), 64, seed=1)
        assert g.edges.shape == (64, 3)
        assert g.n_edges == 64 and g.d == 3
        assert g.density == pytest.approx(0.5)

    def test_degrees_sum(self):
        g = build_hypergraph(FullyRandomChoices(64, 4), 32, seed=2)
        assert g.vertex_degrees().sum() == 32 * 4

    def test_empty_graph(self):
        g = build_hypergraph(FullyRandomChoices(16, 2), 0, seed=3)
        assert g.n_edges == 0
        assert peel(g).success

    def test_negative_edges_rejected(self):
        with pytest.raises(ConfigurationError):
            build_hypergraph(FullyRandomChoices(16, 2), -1)


class TestDecoder:
    def test_single_edge_peels(self):
        g = Hypergraph(n_vertices=5, edges=np.array([[0, 1, 2]]))
        r = peel(g)
        assert r.success
        assert r.peeled_order.tolist() == [0]
        assert r.rounds == 1

    def test_chain_peels_in_order(self):
        """Edges sharing vertices peel outside-in."""
        g = Hypergraph(
            n_vertices=4,
            edges=np.array([[0, 1], [1, 2], [2, 3]]),
        )
        r = peel(g)
        assert r.success
        assert set(r.peeled_order.tolist()) == {0, 1, 2}
        # Middle edge cannot peel first.
        assert r.peeled_order[0] in (0, 2)

    def test_duplicate_edges_form_core(self):
        """Two identical edges are an unpeelable 2-core — the double
        hashing failure mode."""
        g = Hypergraph(
            n_vertices=6, edges=np.array([[0, 1, 2], [0, 1, 2], [3, 4, 5]])
        )
        r = peel(g)
        assert not r.success
        assert set(r.core_edges.tolist()) == {0, 1}
        assert r.core_fraction == pytest.approx(2 / 3)

    def test_cycle_core(self):
        """A 2-regular cycle of 2-edges is exactly a 2-core."""
        g = Hypergraph(
            n_vertices=3, edges=np.array([[0, 1], [1, 2], [2, 0]])
        )
        r = peel(g)
        assert not r.success
        assert len(r.core_edges) == 3

    def test_repeated_vertex_within_edge(self):
        """An edge hitting the same vertex twice still peels via its other
        vertex (degree logic is multiplicity-aware)."""
        g = Hypergraph(n_vertices=4, edges=np.array([[0, 0, 1]]))
        r = peel(g)
        assert r.success

    def test_below_threshold_succeeds(self):
        n = 4096
        g = build_hypergraph(
            FullyRandomChoices(n, 3), int(0.7 * n), seed=4
        )
        assert peel(g).success

    def test_above_threshold_fails_with_big_core(self):
        n = 4096
        g = build_hypergraph(
            FullyRandomChoices(n, 3), int(0.9 * n), seed=5
        )
        r = peel(g)
        assert not r.success
        assert r.core_fraction > 0.4

    def test_rounds_grow_slowly(self):
        """Peeling depth is logarithmic below threshold."""
        rounds = []
        for n in (1024, 8192):
            g = build_hypergraph(
                FullyRandomChoices(n, 3), int(0.6 * n), seed=n
            )
            rounds.append(peel(g).rounds)
        assert rounds[1] <= rounds[0] + 6

    @given(
        n=st.integers(min_value=4, max_value=64),
        m_factor=st.floats(min_value=0.1, max_value=1.2),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_peeled_plus_core_is_everything(self, n, m_factor, seed):
        g = build_hypergraph(
            FullyRandomChoices(n, min(3, n)), int(m_factor * n), seed=seed
        )
        r = peel(g)
        assert len(r.peeled_order) + len(r.core_edges) == g.n_edges
        assert set(r.peeled_order.tolist()).isdisjoint(
            set(r.core_edges.tolist())
        )

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_property_core_is_2core(self, seed):
        """Every vertex of the residual core has degree != 1 (it is a
        genuine 2-core: peeling cannot continue)."""
        g = build_hypergraph(FullyRandomChoices(64, 3), 60, seed=seed)
        r = peel(g)
        core = g.edges[r.core_edges]
        if core.size:
            degrees = np.bincount(core.ravel(), minlength=64)
            assert not np.any(degrees == 1)


class TestDensityEvolution:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_known_thresholds(self, d):
        expected = anchor_value(f"derived/peeling-threshold/d{d}")
        assert peeling_threshold(d) == pytest.approx(expected, abs=1e-5)

    def test_fixed_point_zero_below_threshold(self):
        assert survival_fixed_point(0.7, 3) == 0.0

    def test_fixed_point_positive_above_threshold(self):
        beta = survival_fixed_point(0.9, 3)
        assert 0 < beta < 1
        # Verify it is a fixed point.
        import math

        assert beta == pytest.approx(
            (1 - math.exp(-0.9 * 3 * beta)) ** 2, abs=1e-8
        )

    def test_core_fraction_monotone_in_density(self):
        fracs = [core_edge_fraction(c, 3) for c in (0.7, 0.85, 1.0, 1.2)]
        assert fracs[0] == 0.0
        assert fracs[1] < fracs[2] < fracs[3]

    def test_core_fraction_matches_simulation(self):
        n = 2**14
        g = build_hypergraph(
            FullyRandomChoices(n, 3), int(0.9 * n), seed=6
        )
        r = peel(g)
        assert r.core_fraction == pytest.approx(
            core_edge_fraction(0.9, 3), abs=0.03
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            survival_fixed_point(-0.1, 3)
        with pytest.raises(ConfigurationError):
            peeling_threshold(1)

    def test_threshold_is_solved_once(self, monkeypatch):
        first = peeling_threshold(4)
        calls = []

        def counting(c, d, **kw):
            calls.append((c, d))
            return survival_fixed_point(c, d, **kw)

        monkeypatch.setattr(density_evolution, "survival_fixed_point", counting)
        assert peeling_threshold(4) == first
        assert calls == []
        # Errors are not cached: an invalid d raises on every call.
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                peeling_threshold(1)


class TestDuplicateEdgePhenomenon:
    """The one real double-hashing difference (paper footnote 1)."""

    def test_double_hashing_fails_complete_recovery_at_constant_rate(self):
        """Below threshold, double hashing still fails complete recovery
        in a constant fraction of trials (duplicate-edge cores)."""
        n, failures = 2048, 0
        for seed in range(15):
            g = build_hypergraph(
                DoubleHashingChoices(n, 3), int(0.75 * n), seed=seed
            )
            if not peel(g).success:
                failures += 1
        assert failures >= 3  # constant-probability failure floor

    def test_failures_are_exactly_duplicate_edge_cores(self):
        n = 2048
        for seed in range(15):
            g = build_hypergraph(
                DoubleHashingChoices(n, 3), int(0.75 * n), seed=seed
            )
            r = peel(g)
            if not r.success:
                core_sets = Counter(
                    tuple(sorted(e)) for e in g.edges[r.core_edges]
                )
                assert all(count >= 2 for count in core_sets.values())

    def test_core_fraction_still_vanishing_below_threshold(self):
        """The stuck cores are O(1) edges, so the *fraction* peeled matches
        fully random — the fluid-limit sense in which the schemes agree."""
        n = 4096
        fracs = []
        for seed in range(8):
            g = build_hypergraph(
                DoubleHashingChoices(n, 3), int(0.75 * n), seed=seed
            )
            fracs.append(peel(g).core_fraction)
        assert max(fracs) < 0.01

    def test_fully_random_has_no_failure_floor(self):
        n = 2048
        for seed in range(15):
            g = build_hypergraph(
                FullyRandomChoices(n, 3), int(0.75 * n), seed=seed
            )
            assert peel(g).success


class TestThresholdExperiment:
    def test_sweep_structure(self):
        exp = threshold_experiment(
            1024, 3, [0.6, 0.95], trials=5, seed=7
        )
        assert exp.success_random[0] == 1.0
        assert exp.success_random[1] == 0.0
        assert exp.core_fraction_double[1] > 0.3
        assert exp.asymptotic_threshold == pytest.approx(
            anchor_value("derived/peeling-threshold/d3"), abs=1e-4
        )

    def test_core_fractions_agree_between_schemes(self):
        """Above threshold both schemes leave the same (macroscopic) core."""
        exp = threshold_experiment(2048, 3, [0.9], trials=5, seed=8)
        assert exp.core_fraction_double[0] == pytest.approx(
            exp.core_fraction_random[0], abs=0.03
        )

    def test_empirical_threshold_interpolation(self):
        exp = threshold_experiment(
            1024, 3, [0.6, 0.7, 0.95, 1.0], trials=4, seed=9
        )
        c = exp.empirical_threshold("random")
        assert 0.6 <= c <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            threshold_experiment(64, 3, [], trials=2)
        with pytest.raises(ConfigurationError):
            threshold_experiment(64, 3, [0.5], trials=0)
