"""Text rendering of reproduced tables, paper-vs-measured.

:func:`format_table` prints one :class:`~repro.experiments.tables.ExperimentTable`
in an aligned fixed-width layout resembling the paper's tables.
"""

from __future__ import annotations

from repro.experiments.tables import ExperimentTable

__all__ = ["format_number", "format_table"]


def format_number(value) -> str:
    """Numeric formatting matching the paper's style.

    Fractions print with 5 decimals; very small values switch to scientific
    notation (the paper prints e.g. ``2.25 · 10^-5``); integers stay plain.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    v = float(value)
    if v == 0.0:
        return "0"
    if abs(v) < 5e-5:
        return f"{v:.2e}"
    if abs(v) >= 100:
        return f"{v:.2f}"
    return f"{v:.5f}"


def format_table(table: ExperimentTable, *, show_meta: bool = True) -> str:
    """Render one experiment table as aligned text."""
    header = [table.table_id + ": " + table.title]
    if show_meta and table.meta:
        meta = ", ".join(f"{k}={v}" for k, v in table.meta.items())
        header.append(f"  [{meta}]")
    str_rows = [
        [format_number(cell) for cell in row] for row in table.rows
    ]
    widths = [
        max(len(col), *(len(r[i]) for r in str_rows)) if str_rows else len(col)
        for i, col in enumerate(table.columns)
    ]
    lines = [
        "  ".join(col.ljust(w) for col, w in zip(table.columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(header + lines)
