"""Tests for the per-table experiment harness (small-scale runs)."""

from __future__ import annotations

import pytest

from repro.certify.anchors import anchor_value, paper_values
from repro.experiments import (
    ExperimentSpec,
    format_table,
    table1_load_fractions,
    table2_fluid_vs_simulation,
    table3_larger_n,
    table4_max_load,
    table5_level_stats,
    table6_heavy_load,
    table7_dleft,
    table8_queueing,
)

# Small-scale shared runs (module-scoped to keep the suite fast).


@pytest.fixture(scope="module")
def t1():
    return table1_load_fractions(ExperimentSpec(n=2**12, d=3, trials=60, seed=1))


@pytest.fixture(scope="module")
def t2():
    return table2_fluid_vs_simulation(ExperimentSpec(n=2**12, d=3, trials=60, seed=2))


class TestTable1(object):
    def test_rows_shape(self, t1):
        assert t1.columns == ["Load", "Fully Random", "Double Hashing"]
        assert all(len(row) == 3 for row in t1.rows)

    def test_fractions_sum_to_one(self, t1):
        assert sum(r[1] for r in t1.rows) == pytest.approx(1.0, abs=1e-9)
        assert sum(r[2] for r in t1.rows) == pytest.approx(1.0, abs=1e-9)

    def test_near_paper_values(self, t1):
        paper = paper_values()["table1"][(3, "double")]
        for load, _, double_frac in t1.rows:
            if load in paper:
                assert double_frac == pytest.approx(paper[load], abs=0.004)

    def test_schemes_agree(self, t1):
        for _, random_frac, double_frac in t1.rows:
            assert random_frac == pytest.approx(double_frac, abs=0.005)

    def test_random_column_near_paper_values(self, t1):
        for load, random_frac, _ in t1.rows[:4]:
            paper = anchor_value(f"table1/d3/random/load{load}")
            assert random_frac == pytest.approx(paper, abs=0.004)


class TestTable2(object):
    def test_fluid_column_matches_paper(self, t2):
        paper = paper_values()["table2"]["fluid"]
        for load, fluid, _, _ in t2.rows:
            if load in paper:
                assert fluid == pytest.approx(paper[load], abs=2e-4)

    def test_simulation_near_fluid(self, t2):
        for load, fluid, random_frac, double_frac in t2.rows:
            if fluid > 1e-3:
                assert random_frac == pytest.approx(fluid, rel=0.05)
                assert double_frac == pytest.approx(fluid, rel=0.05)

    def test_tails_monotone(self, t2):
        fluid_col = [r[1] for r in t2.rows]
        assert fluid_col == sorted(fluid_col, reverse=True)


class TestTable3:
    def test_small_scale_run(self):
        t = table3_larger_n(ExperimentSpec(n=2**12, d=3, trials=20, seed=3))
        assert "2^12" in t.table_id

    def test_paper_reference_for_published_sizes(self):
        t = table3_larger_n(ExperimentSpec(n=2**16, d=3, trials=2, seed=4))
        for load, random_frac, double_frac in t.rows[:4]:
            for role, frac in (("random", random_frac), ("double", double_frac)):
                paper = anchor_value(f"table3/n16/d3/{role}/load{load}")
                assert frac == pytest.approx(paper, abs=0.004)


class TestTable4:
    def test_structure_and_monotonicity(self):
        t = table4_max_load(
            ExperimentSpec(d=3, trials=60, seed=5), log2_n_values=(9, 11, 13)
        )
        assert len(t.rows) == 3
        random_col = [r[1] for r in t.rows]
        # Fraction of trials with max load 3 increases with n (d = 3).
        assert random_col[0] <= random_col[-1]

    def test_percent_range(self):
        t = table4_max_load(ExperimentSpec(d=3, trials=40, seed=6), log2_n_values=(12,))
        for _, a, b in t.rows:
            assert 0.0 <= a <= 100.0 and 0.0 <= b <= 100.0


class TestTable5:
    def test_level_stats_structure(self):
        t = table5_level_stats(ExperimentSpec(n=2**12, d=4, trials=10, seed=7))
        schemes = {row[0] for row in t.rows}
        assert schemes == {"random", "double"}
        for _, load, mn, avg, mx, std in t.rows:
            assert mn <= avg <= mx
            assert std >= 0

    def test_counts_scale_with_n(self):
        t = table5_level_stats(ExperimentSpec(n=2**12, d=4, trials=10, seed=8))
        level1 = [r for r in t.rows if r[1] == 1]
        for row in level1:
            # ~71.8% of bins at load 1 (paper Table 5 shape).
            assert row[3] == pytest.approx(0.718 * 2**12, rel=0.03)


class TestTable6:
    def test_heavy_load_shape(self):
        t = table6_heavy_load(ExperimentSpec(n=2**10, d=3, trials=10, seed=9), balls_per_bin=16)
        loads = [r[0] for r in t.rows]
        assert 16 in loads
        peak = max(t.rows, key=lambda r: r[1])
        assert peak[0] == 16  # distribution peaks at the mean load

    def test_fluid_column_matches_paper(self):
        t = table6_heavy_load(ExperimentSpec(n=2**10, d=3, trials=5, seed=10), balls_per_bin=16)
        paper = paper_values()["table6"][(3, "random")]
        fluid_by_load = {r[0]: r[3] for r in t.rows}
        for load, expected in paper.items():
            if expected > 1e-3:
                assert fluid_by_load[load] == pytest.approx(expected, rel=0.02)


class TestTable7:
    def test_dleft_small_scale(self):
        t = table7_dleft(ExperimentSpec(n=2**12, d=4, trials=40, seed=11))
        by_load = {r[0]: r for r in t.rows}
        load0 = anchor_value("table7/n18/random/load0")
        load1 = anchor_value("table7/n18/random/load1")
        # Fluid column matches the paper's published fractions.
        assert by_load[0][3] == pytest.approx(load0, abs=1e-4)
        assert by_load[1][3] == pytest.approx(load1, abs=1e-4)
        # Simulated columns near fluid.
        assert by_load[0][1] == pytest.approx(load0, abs=0.01)
        assert by_load[0][2] == pytest.approx(load0, abs=0.01)


class TestTable8:
    def test_queueing_row(self):
        t = table8_queueing(
            ExperimentSpec(n=128, sim_time=200.0, burn_in=40.0, seed=12),
            lambdas=(0.9,), d_values=(3,),
        )
        (lam, d, rand, dbl, fluid) = t.rows[0]
        assert lam == 0.9 and d == 3
        assert fluid == pytest.approx(2.0279, abs=1e-3)
        assert rand == pytest.approx(fluid, rel=0.2)
        assert dbl == pytest.approx(fluid, rel=0.2)


class TestFormatting:
    def test_format_table_renders(self, t1):
        text = format_table(t1)
        assert "Table 1" in text
        assert "Fully Random" in text
        assert "0.6" in text  # the load-1 fraction

    def test_scientific_notation_for_tiny(self):
        from repro.experiments.report import format_number

        assert "e" in format_number(2.3e-5)
        assert format_number(0.12345) == "0.12345"
        assert format_number(7) == "7"
        assert format_number(0.0) == "0"
        assert format_number("x") == "x"
