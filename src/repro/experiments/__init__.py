"""Experiment harness: one function per table in the paper's evaluation.

Each ``table*`` function runs the corresponding experiment at a configurable
scale and returns an :class:`~repro.experiments.tables.ExperimentTable`
holding the measured rows, ready for text rendering via
:func:`~repro.experiments.report.format_table`.

Each ``table*`` function takes an
:class:`~repro.experiments.config.ExperimentSpec`; per-table defaults live
in ``TABLE_DEFAULTS`` and are shared with the CLI.  Default scales are
sized for minutes, not the paper's 10⁴-trial overnight runs; pass a spec
with larger ``trials``/``n`` to approach paper scale (a run keeps a few
integers per trial, and the execution engine checkpoints long sweeps —
see ``docs/engine.md``).
"""

from repro.experiments.config import TABLE_DEFAULTS, ExperimentSpec
from repro.experiments.report import format_table
from repro.experiments.tables import (
    ExperimentTable,
    table1_load_fractions,
    table2_fluid_vs_simulation,
    table3_larger_n,
    table4_max_load,
    table5_level_stats,
    table6_heavy_load,
    table7_dleft,
    table8_queueing,
)

__all__ = [
    "ExperimentSpec",
    "ExperimentTable",
    "TABLE_DEFAULTS",
    "format_table",
    "table1_load_fractions",
    "table2_fluid_vs_simulation",
    "table3_larger_n",
    "table4_max_load",
    "table5_level_stats",
    "table6_heavy_load",
    "table7_dleft",
    "table8_queueing",
]
