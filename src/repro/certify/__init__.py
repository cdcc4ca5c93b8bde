"""Paper-anchor certification: the equivalence claim as a checkable artifact.

The paper's headline empirical claim — double hashing is statistically
indistinguishable from fully random hashing across its evaluation tables
— is certified here as a reproducible pipeline rather than a set of
scattered tolerance checks:

- :mod:`repro.certify.anchors` — the registry of transcribed paper
  values (the *only* transcription in the codebase), with provenance
  and printed-precision metadata per cell;
- :mod:`repro.certify.tiers` — ``smoke`` / ``standard`` / ``full``
  budgets mapping each table to an
  :class:`~repro.experiments.config.ExperimentSpec` and to the tier's
  statistical thresholds;
- :mod:`repro.certify.runner` — executes every table's random/double
  pair through the execution engine and applies the
  :mod:`repro.analysis.comparison` statistics (chi-square homogeneity
  with small-cell merging, sampling envelopes, Holm correction across
  the whole family, bootstrap CIs on max-load statistics, fluid-limit
  agreement);
- :mod:`repro.certify.verdict` — the ``certification.json`` document:
  schema, validation, and serialization;
- :mod:`repro.certify.experiments_md` — regenerates EXPERIMENTS.md from
  the registry and checks the committed file for drift.

Entry point: ``python -m repro certify --tier smoke`` (see
``docs/certification.md`` for the methodology and
``docs/reproducing.md`` for the workflow).

Heavy submodules (runner, emitter) are imported lazily so that low
layers — notably :mod:`repro.experiments.config`, which rebuilds
``PAPER_VALUES`` from :func:`repro.certify.anchors.paper_values` — can
import this package without a cycle.
"""

from __future__ import annotations

from repro.certify.anchors import (
    ANCHORS,
    REGISTRY,
    PaperAnchor,
    anchor,
    anchor_value,
    paper_values,
)

__all__ = [
    "ANCHORS",
    "REGISTRY",
    "PaperAnchor",
    "anchor",
    "anchor_value",
    "paper_values",
    # Lazily resolved (PEP 562):
    "TIERS",
    "CertificationTier",
    "TableRun",
    "Certification",
    "CheckResult",
    "run_certification",
    "validate_certification",
    "write_certification",
    "render_experiments_md",
    "check_experiments_md_drift",
]

_LAZY = {
    "TIERS": "repro.certify.tiers",
    "CertificationTier": "repro.certify.tiers",
    "TableRun": "repro.certify.tiers",
    "Certification": "repro.certify.runner",
    "CheckResult": "repro.certify.runner",
    "run_certification": "repro.certify.runner",
    "validate_certification": "repro.certify.verdict",
    "write_certification": "repro.certify.verdict",
    "render_experiments_md": "repro.certify.experiments_md",
    "check_experiments_md_drift": "repro.certify.experiments_md",
}


def __getattr__(name: str):
    """Resolve heavy certification members on first access (PEP 562)."""
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
