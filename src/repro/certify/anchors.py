"""The paper-anchor registry: every published value, transcribed once.

This module is the single place in the codebase where numbers from the
paper (Mitzenmacher, *Balanced Allocations and Double Hashing*,
arXiv:1209.5360v4) are transcribed.  Everything else — ``PAPER_VALUES``
in :mod:`repro.experiments.config`, the self-validation suite, the
table benchmarks, the EXPERIMENTS.md emitter, and the certification
runner — looks values up here, so a transcription typo can only ever
exist (and be fixed) in one file.

Two views are exposed:

- :data:`ANCHORS` / :data:`REGISTRY` — a flat, typed list of
  :class:`PaperAnchor` records, one per published cell, each carrying a
  stable ``anchor_id``, provenance (``source``), and the printed
  precision (``decimals``) from which a rounding quantum is derived;
- :func:`paper_values` — the historical nested-dict shape
  (``PAPER_VALUES``) rebuilt from the same transcription, for existing
  consumers.

The registry is intentionally dependency-free (stdlib only) so that low
layers such as :mod:`repro.experiments.config` can import it without
cycles.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

__all__ = [
    "ANCHORS",
    "PAPER_SOURCE",
    "REGISTRY",
    "PaperAnchor",
    "anchor",
    "anchor_value",
    "paper_values",
]

#: Canonical citation for every ``table*`` anchor.
PAPER_SOURCE = "arXiv:1209.5360v4 (Mitzenmacher, SPAA 2014)"


@dataclass(frozen=True)
class PaperAnchor:
    """One published value with provenance and printed precision.

    Attributes
    ----------
    anchor_id:
        Stable slash-separated identifier, e.g. ``"table1/d3/random/load0"``.
    table:
        Owning table (``"table1"`` … ``"table8"``) or ``"derived"`` for
        literature constants the validation suite also certifies.
    key:
        The structured key within the owning table's legacy dict shape.
    value:
        The published number, exactly as printed.
    kind:
        ``"fraction"`` | ``"percent"`` | ``"count-stat"`` |
        ``"sojourn-time"`` | ``"threshold"``.
    role:
        ``"random"`` | ``"double"`` | ``"fluid"`` | ``""`` (derived).
    source:
        Citation string (paper table, or the follow-up literature).
    decimals:
        Digits printed after the decimal point (exponent-adjusted for
        scientific notation); drives :attr:`quantum`.
    """

    anchor_id: str
    table: str
    key: tuple
    value: float
    kind: str
    role: str
    source: str
    decimals: int

    @property
    def quantum(self) -> float:
        """Half a unit in the last printed digit — the rounding radius."""
        return 0.5 * 10.0 ** (-self.decimals)


# --------------------------------------------------------------------------
# The transcription.  THIS IS THE ONLY PLACE PAPER NUMBERS ARE TYPED IN.
# The nested shape mirrors the historical PAPER_VALUES layout so
# paper_values() can reproduce it bit-for-bit.
# --------------------------------------------------------------------------
_TRANSCRIPTION: dict[str, dict] = {
    # Table 1: fraction of bins with each load, n = 2^14 balls and bins.
    "table1": {
        (3, "random"): {0: 0.17693, 1: 0.64664, 2: 0.17592, 3: 0.00051},
        (3, "double"): {0: 0.17691, 1: 0.64670, 2: 0.17589, 3: 0.00051},
        (4, "random"): {0: 0.14081, 1: 0.71840, 2: 0.14077, 3: 2.25e-5},
        (4, "double"): {0: 0.14081, 1: 0.71841, 2: 0.14076, 3: 2.29e-5},
    },
    # Table 2: tail fractions, 3 choices, fluid limit vs n = 2^14.
    "table2": {
        "fluid": {1: 0.8231, 2: 0.1765, 3: 0.00051},
        "random": {1: 0.8231, 2: 0.1764, 3: 0.00051},
        "double": {1: 0.8231, 2: 0.1764, 3: 0.00051},
    },
    # Table 3: load fractions at n = 2^16 and 2^18.
    "table3": {
        (16, 3, "random"): {0: 0.17695, 1: 0.64661, 2: 0.17593, 3: 0.00051},
        (16, 3, "double"): {0: 0.17693, 1: 0.64664, 2: 0.17592, 3: 0.00051},
        (16, 4, "random"): {0: 0.14081, 1: 0.71841, 2: 0.14076, 3: 2.32e-5},
        (16, 4, "double"): {0: 0.14083, 1: 0.71835, 2: 0.14079, 3: 2.30e-5},
        (18, 3, "random"): {0: 0.17696, 1: 0.64658, 2: 0.17595, 3: 0.00051},
        (18, 3, "double"): {0: 0.17696, 1: 0.64648, 2: 0.17595, 3: 0.00051},
        (18, 4, "random"): {0: 0.14083, 1: 0.71837, 2: 0.14078, 3: 2.31e-5},
        (18, 4, "double"): {0: 0.14082, 1: 0.71838, 2: 0.14078, 3: 2.32e-5},
    },
    # Table 4: percentage of trials with maximum load 3.
    "table4": {
        (3, "random"): {
            10: 39.78, 11: 64.71, 12: 86.90, 13: 98.37, 14: 100.0, 15: 100.0,
        },
        (3, "double"): {
            10: 39.40, 11: 65.15, 12: 87.05, 13: 98.63, 14: 99.99, 15: 100.0,
        },
        (4, "random"): {
            10: 2.24, 12: 8.91, 14: 30.75, 16: 78.23, 18: 99.77, 20: 100.0,
        },
        (4, "double"): {
            10: 2.23, 12: 8.52, 14: 31.42, 16: 77.72, 18: 99.79, 20: 100.0,
        },
    },
    # Table 5: per-load count statistics, 4 choices, 2^18 balls and bins.
    "table5": {
        "random": {
            0: {"min": 36522, "avg": 36913.75, "max": 37308, "std": 111.06},
            1: {"min": 187533, "avg": 188322.55, "max": 189103, "std": 222.02},
            2: {"min": 36516, "avg": 36901.67, "max": 37298, "std": 110.96},
            3: {"min": 1, "avg": 6.04, "max": 17, "std": 2.42},
        },
        "double": {
            0: {"min": 36535, "avg": 36916.57, "max": 37301, "std": 109.89},
            1: {"min": 187544, "avg": 188316.93, "max": 189078, "std": 219.71},
            2: {"min": 36524, "avg": 36904.45, "max": 37297, "std": 109.85},
            3: {"min": 1, "avg": 6.06, "max": 18, "std": 2.44},
        },
    },
    # Table 6: 2^18 balls into 2^14 bins (average load 16).
    "table6": {
        (3, "random"): {
            13: 0.00076, 14: 0.01254, 15: 0.16885, 16: 0.62220,
            17: 0.19482, 18: 0.00079,
        },
        (3, "double"): {
            13: 0.00076, 14: 0.01254, 15: 0.16877, 16: 0.62234,
            17: 0.19475, 18: 0.00079,
        },
        (4, "random"): {
            14: 0.00349, 15: 0.13908, 16: 0.71110, 17: 0.14622, 18: 2.86e-5,
        },
        (4, "double"): {
            14: 0.00349, 15: 0.13906, 16: 0.71114, 17: 0.14620, 18: 2.85e-5,
        },
    },
    # Table 7: Vöcking's d-left scheme, 4 choices.
    "table7": {
        (14, "random"): {0: 0.12420, 1: 0.75160, 2: 0.12420},
        (14, "double"): {0: 0.12421, 1: 0.75158, 2: 0.12421},
        (18, "random"): {0: 0.12421, 1: 0.75159, 2: 0.12421},
        (18, "double"): {0: 0.12421, 1: 0.75158, 2: 0.12421},
    },
    # Table 8: queueing, n = 2^14 queues, average time in system.
    "table8": {
        (0.9, 3, "random"): 2.02805,
        (0.9, 3, "double"): 2.02813,
        (0.9, 4, "random"): 1.77788,
        (0.9, 4, "double"): 1.77792,
        (0.99, 3, "random"): 3.85967,
        (0.99, 3, "double"): 3.86073,
        (0.99, 4, "random"): 3.24347,
        (0.99, 4, "double"): 3.24410,
    },
}

# Constants from the follow-up literature that the validation suite also
# certifies (peeling thresholds for d = 3/4/5 random hypergraphs).
_DERIVED: dict[str, tuple[float, str]] = {
    "derived/peeling-threshold/d3": (
        0.81847, "density-evolution threshold c*_3 (paper's reference [30])",
    ),
    "derived/peeling-threshold/d4": (
        0.77228, "density-evolution threshold c*_4 (paper's reference [30])",
    ),
    "derived/peeling-threshold/d5": (
        0.70178, "density-evolution threshold c*_5 (paper's reference [30])",
    ),
}

# Printed decimals for cells whose repr under-reports precision (the
# paper prints trailing zeros the float literal cannot carry).
_TABLE_KIND = {
    "table1": "fraction",
    "table2": "fraction",
    "table3": "fraction",
    "table4": "percent",
    "table5": "count-stat",
    "table6": "fraction",
    "table7": "fraction",
    "table8": "sojourn-time",
}


def _decimals_of(value: float) -> int:
    """Printed decimal places of ``value`` inferred from its repr.

    Scientific notation is exponent-adjusted: ``2.25e-5`` is precise to
    ``10^-7``, hence 7 decimals.
    """
    if isinstance(value, int):
        return 0
    text = repr(float(value))
    if "e" in text:
        mantissa, exponent = text.split("e")
        frac = len(mantissa.split(".")[1]) if "." in mantissa else 0
        return max(0, frac - int(exponent))
    return len(text.split(".")[1]) if "." in text else 0


def _slug(part) -> str:
    """Render one key component for an anchor id."""
    if isinstance(part, float):
        return f"lam{part}" if part < 1 else str(part)
    return str(part)


def _iter_anchors():
    """Yield one :class:`PaperAnchor` per transcribed cell."""
    for table, cells in _TRANSCRIPTION.items():
        kind = _TABLE_KIND[table]
        for key, entry in cells.items():
            if table == "table1" or table == "table6":
                d, role = key
                prefix = f"{table}/d{d}/{role}"
            elif table == "table2":
                role = key
                prefix = f"{table}/{role}"
            elif table == "table3":
                log2_n, d, role = key
                prefix = f"{table}/n{log2_n}/d{d}/{role}"
            elif table == "table4":
                d, role = key
                prefix = f"{table}/d{d}/{role}"
            elif table == "table5":
                role = key
                prefix = f"{table}/{role}"
            elif table == "table7":
                log2_n, role = key
                prefix = f"{table}/n{log2_n}/{role}"
            else:  # table8: scalar cells keyed (lambda, d, role)
                lam, d, role = key
                yield PaperAnchor(
                    anchor_id=f"{table}/{_slug(lam)}/d{d}/{role}",
                    table=table,
                    key=key,
                    value=float(entry),
                    kind=kind,
                    role=role,
                    source=f"{PAPER_SOURCE}, Table 8",
                    decimals=_decimals_of(entry),
                )
                continue
            label = "Table " + table.removeprefix("table")
            for sub, value in entry.items():
                if isinstance(value, dict):  # table5 per-load stat blocks
                    for stat, v in value.items():
                        yield PaperAnchor(
                            anchor_id=f"{prefix}/load{sub}/{stat}",
                            table=table,
                            key=(key, sub, stat),
                            value=float(v),
                            kind=kind,
                            role=role,
                            source=f"{PAPER_SOURCE}, {label}",
                            decimals=_decimals_of(v),
                        )
                else:
                    field = "tail" if table == "table2" else (
                        "n" if table == "table4" else "load"
                    )
                    yield PaperAnchor(
                        anchor_id=f"{prefix}/{field}{sub}",
                        table=table,
                        key=(key, sub),
                        value=float(value),
                        kind=kind,
                        role=role,
                        source=f"{PAPER_SOURCE}, {label}",
                        decimals=_decimals_of(value),
                    )
    for anchor_id, (value, source) in _DERIVED.items():
        yield PaperAnchor(
            anchor_id=anchor_id,
            table="derived",
            key=(anchor_id,),
            value=value,
            kind="threshold",
            role="",
            source=source,
            decimals=_decimals_of(value),
        )


#: Every registered anchor, in transcription order.
ANCHORS: tuple[PaperAnchor, ...] = tuple(_iter_anchors())

#: Anchors indexed by ``anchor_id``.
REGISTRY: dict[str, PaperAnchor] = {a.anchor_id: a for a in ANCHORS}

if len(REGISTRY) != len(ANCHORS):  # pragma: no cover - build-time invariant
    raise RuntimeError("duplicate anchor ids in the paper-anchor registry")


def anchor(anchor_id: str) -> PaperAnchor:
    """Look up one anchor by id, with a helpful error for typos."""
    try:
        return REGISTRY[anchor_id]
    except KeyError:
        raise KeyError(
            f"unknown paper anchor {anchor_id!r}; known tables: "
            f"{sorted({a.table for a in ANCHORS})}"
        ) from None


def anchor_value(anchor_id: str) -> float:
    """The published value behind ``anchor_id``."""
    return anchor(anchor_id).value


def paper_values() -> dict[str, dict]:
    """The legacy ``PAPER_VALUES`` nested-dict view of the registry.

    Returns a deep copy so callers mutating their view (e.g. the table
    functions attaching slices to results) cannot corrupt the registry.
    """
    return copy.deepcopy(_TRANSCRIPTION)
