"""Tests for report formatting details."""

from __future__ import annotations

from repro.experiments.report import format_number, format_table
from repro.experiments.tables import ExperimentTable


class TestFormatNumber:
    def test_large_values_two_decimals(self):
        assert format_number(1752.4974) == "1752.50"
        assert format_number(100.0) == "100.00"

    def test_mid_range_five_decimals(self):
        assert format_number(0.5) == "0.50000"
        assert format_number(2.71828) == "2.71828"

    def test_tiny_scientific(self):
        assert format_number(2.25e-5) == "2.25e-05"

    def test_zero_and_strings_and_ints(self):
        assert format_number(0.0) == "0"
        assert format_number(0) == "0"
        assert format_number(42) == "42"
        assert format_number("2^14") == "2^14"

    def test_negative(self):
        assert format_number(-0.25) == "-0.25000"


class TestFormatTable:
    def _table(self) -> ExperimentTable:
        return ExperimentTable(
            table_id="Table X",
            title="demo",
            columns=["Load", "Value"],
            rows=[(0, 0.12345678), (1, 2.5e-6)],
            meta={"n": 16},
        )

    def test_meta_shown_by_default(self):
        text = format_table(self._table())
        assert "[n=16]" in text

    def test_meta_hidden(self):
        text = format_table(self._table(), show_meta=False)
        assert "[n=16]" not in text

    def test_alignment_and_values(self):
        text = format_table(self._table())
        lines = text.splitlines()
        header = next(line for line in lines if "Load" in line)
        assert "Value" in header
        assert "0.12346" in text
        assert "2.50e-06" in text

    def test_empty_rows(self):
        table = ExperimentTable(
            table_id="T", title="empty", columns=["A"], rows=[]
        )
        text = format_table(table)
        assert "A" in text


class TestFormatTableAlignment:
    def _wide_table(self) -> ExperimentTable:
        return ExperimentTable(
            table_id="Table Y",
            title="alignment demo",
            columns=["Load", "A long header", "B"],
            rows=[(0, 0.5, 1752.4974), (10, 2.5e-6, 3)],
            meta={},
        )

    def test_columns_align_across_rows(self):
        """Every cell of a column starts at the offset the separator row
        (the dash runs) defines, in the header and every data row."""
        text = format_table(self._wide_table(), show_meta=False)
        lines = text.splitlines()
        sep = next(line for line in lines if set(line) <= {"-", " "} and "-" in line)
        starts = [
            i for i, ch in enumerate(sep)
            if ch == "-" and (i == 0 or sep[i - 1] == " ")
        ]
        assert len(starts) == 3  # one dash run per column
        rows = [line for line in lines if line is not sep and "  " in line]
        header = next(line for line in rows if "Load" in line)
        data = [line for line in rows if line is not header]
        assert len(data) >= 2
        for line in [header] + data:
            for start in starts:
                assert line[start] != " ", (text, start)
                if start:
                    assert line[start - 1] == " ", (text, start)
        assert len({len(line) for line in [sep, header] + data}) == 1

    def test_header_wider_than_values(self):
        """Column width follows the widest cell, header included."""
        text = format_table(self._wide_table(), show_meta=False)
        header = next(line for line in text.splitlines() if "A long header" in line)
        assert "B" in header
