"""Tests for the shipped certification tiers."""

from __future__ import annotations

import pytest

from repro.certify.runner import _CERTIFIERS
from repro.certify.tiers import TIERS, tier


class TestTierLookup:
    def test_shipped_names(self):
        assert set(TIERS) == {"smoke", "standard", "full"}

    def test_lookup_and_unknown(self):
        assert tier("smoke").name == "smoke"
        with pytest.raises(KeyError, match="unknown certification tier"):
            tier("ludicrous")


class TestTierShape:
    @pytest.mark.parametrize("name", sorted(TIERS))
    def test_every_run_has_a_certifier(self, name):
        for run in TIERS[name].runs:
            assert run.table in _CERTIFIERS, run.table

    def test_smoke_covers_the_gate_tables(self):
        assert set(tier("smoke").tables) == {
            "table1", "table2", "table3", "table8", "peeling", "schemes",
        }

    def test_standard_and_full_cover_all_tables(self):
        expected = {f"table{k}" for k in range(1, 9)} | {"peeling", "schemes"}
        assert set(tier("standard").tables) == expected
        assert set(tier("full").tables) == expected

    def test_scheme_sweeps_name_registered_keyed_schemes(self):
        from repro.hashing import keyed_scheme_names

        keyed = set(keyed_scheme_names())
        for name in sorted(TIERS):
            for run in TIERS[name].runs:
                if run.table != "schemes":
                    continue
                swept = run.extras["schemes"]
                assert set(swept) <= keyed, (name, run.variant)
                assert len(swept) == len(set(swept))

    def test_standard_schemes_cell_sweeps_the_zoo(self):
        from repro.hashing.registry import ZOO_FAMILIES

        swept = [run.extras["schemes"] for run in tier("standard").runs
                 if run.table == "schemes"]
        assert swept == [ZOO_FAMILIES]

    def test_standard_runs_table4_at_d3_and_d4(self):
        ds = [run.spec.d for run in tier("standard").runs
              if run.table == "table4"]
        assert ds == [3, 4]

    def test_full_tier_sweeps_production_scale(self):
        sizes = [run.spec.n for run in TIERS["full"].runs
                 if run.table == "schemes"]
        assert max(sizes) == 2**24

    @pytest.mark.parametrize("name", sorted(TIERS))
    def test_seeds_distinct_within_tier(self, name):
        seeds = [run.spec.seed for run in TIERS[name].runs]
        assert len(seeds) == len(set(seeds))

    def test_thresholds_tighten_with_budget(self):
        smoke, standard, full = tier("smoke"), tier("standard"), tier("full")
        assert smoke.anchor_z > standard.anchor_z > full.anchor_z
        assert smoke.queueing_rel_tol > standard.queueing_rel_tol
        assert standard.queueing_rel_tol > full.queueing_rel_tol

    @pytest.mark.parametrize("name", sorted(TIERS))
    def test_variants_unique_per_table(self, name):
        pairs = [(run.table, run.variant) for run in TIERS[name].runs]
        assert len(pairs) == len(set(pairs))
