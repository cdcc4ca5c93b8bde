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
- :mod:`repro.certify.experiments_md` — prints EXPERIMENTS.md from a
  certification run and checks the committed file's paper cells
  against the registry.

Entry point: ``python -m repro certify --tier smoke`` (see
``docs/certification.md`` for the methodology and
``docs/reproducing.md`` for the workflow).
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
from repro.certify.experiments_md import (
    check_experiments_md_drift,
    render_experiments_md,
)
from repro.certify.runner import Certification, CheckResult, run_certification
from repro.certify.tiers import TIERS, CertificationTier, TableRun
from repro.certify.verdict import validate_certification, write_certification

__all__ = [
    "ANCHORS",
    "REGISTRY",
    "PaperAnchor",
    "anchor",
    "anchor_value",
    "paper_values",
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
