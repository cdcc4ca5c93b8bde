"""Tests for the paper-anchor registry: shape, provenance, single-sourcing."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.certify.anchors import (
    ANCHORS,
    PAPER_SOURCE,
    anchor,
    anchor_value,
    paper_values,
)

REPO = Path(__file__).resolve().parent.parent.parent


class TestRegistryShape:
    def test_every_table_present(self):
        tables = {a.table for a in ANCHORS}
        assert tables >= {f"table{k}" for k in range(1, 9)}
        assert "derived" in tables

    def test_ids_unique_and_resolvable(self):
        ids = [a.anchor_id for a in ANCHORS]
        assert len(ids) == len(set(ids))
        for anchor_id in ids:
            assert anchor(anchor_id).anchor_id == anchor_id

    def test_paper_anchors_cite_the_paper(self):
        for a in ANCHORS:
            if a.table.startswith("table"):
                assert PAPER_SOURCE in a.source or a.source, a.anchor_id

    def test_unknown_id_raises_keyerror_naming_tables(self):
        with pytest.raises(KeyError, match="table1"):
            anchor("table1/no/such/cell")

    def test_known_cells(self):
        assert anchor_value("table2/fluid/tail1") == pytest.approx(0.8231)
        assert anchor("table1/d3/random/load0").role == "random"
        assert anchor("table8/lam0.9/d3/double").kind == "sojourn-time"

    def test_quantum_is_half_last_digit(self):
        a = anchor("table1/d3/random/load0")  # printed 0.17693: 5 decimals
        assert a.quantum == pytest.approx(0.5e-5)
        tail = anchor("table2/fluid/tail1")  # printed 0.8231: 4 decimals
        assert tail.quantum == pytest.approx(0.5e-4)

    def test_scientific_notation_quantum(self):
        # 2.25e-05: last printed digit is the 1e-7 place.
        a = anchor("table1/d4/random/load3")
        assert a.value == pytest.approx(2.25e-5)
        assert a.quantum == pytest.approx(0.5e-7)


class TestLegacyView:
    def test_paper_values_shape(self):
        pv = paper_values()
        assert pv["table1"][(3, "random")][0] == pytest.approx(0.17693)
        assert pv["table2"]["fluid"][1] == pytest.approx(0.8231)

    def test_paper_values_is_a_copy(self):
        pv = paper_values()
        pv["table1"][(3, "random")][0] = -1.0
        assert paper_values()["table1"][(3, "random")][0] == pytest.approx(0.17693)


class TestSingleTranscription:
    """No paper value may be typed anywhere outside the registry."""

    # Distinctive literals, one per region of the paper: Table 1 load-0,
    # Table 2 tail-1, Table 4 percent, Table 7 load-1, Table 8 sojourn,
    # and the derived peeling threshold.
    SENTINELS = (
        "0.17693",
        "0.8231",
        "39.78",
        "0.75159",
        "2.02805",
        "0.81847",
    )

    def _offending_files(self, sentinel: str) -> list[str]:
        hits = []
        roots = [REPO / "src", REPO / "benchmarks", REPO / "tests"]
        for root in roots:
            for path in root.rglob("*.py"):
                if path.name == "anchors.py" and path.parent.name == "certify":
                    continue
                if path == Path(__file__).resolve():
                    continue
                if sentinel in path.read_text(encoding="utf-8"):
                    hits.append(str(path.relative_to(REPO)))
        return hits

    @pytest.mark.parametrize("sentinel", SENTINELS)
    def test_sentinel_only_in_registry(self, sentinel):
        assert sentinel in (REPO / "src/repro/certify/anchors.py").read_text()
        offenders = self._offending_files(sentinel)
        assert not offenders, (
            f"paper value {sentinel} transcribed outside the registry in: "
            f"{offenders}; look it up via repro.certify.anchors instead"
        )
