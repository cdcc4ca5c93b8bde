"""Peeling processes on random hypergraphs — the paper's "next frontier".

The paper's conclusion singles out structures analysed by fluid limits —
"such as low-density parity-check codes" — as the natural next setting for
double hashing, and the follow-up work it cites ([30], Mitzenmacher–Thaler,
*Peeling Arguments and Double Hashing*) studies exactly this: random
``d``-uniform hypergraphs where each hyperedge's ``d`` vertices are chosen
by double hashing instead of independently, peeled down to their 2-core.
Peeling is the decoding procedure behind erasure-correcting codes, IBLTs,
and cuckoo-hashing analyses.

This subpackage provides:

- :mod:`repro.peeling.hypergraph` — hypergraph construction directly from
  any :class:`~repro.hashing.base.ChoiceScheme` (the same objects the
  balls-and-bins engines use);
- :mod:`repro.peeling.decoder` — the peeling decoder: ``peel`` (the
  batched flat-array kernel of :mod:`repro.kernels.peeling`) and
  ``peel_reference`` (the slow executable specification), exactly
  equivalent on every observable and returning one ``PeelResult``;
- :mod:`repro.peeling.density_evolution` — the fluid limit of peeling:
  the survival recursion ``β ← (1 − e^{−c·d·β})^{d−1}``, numeric threshold
  solver (reproducing the known literature thresholds — the
  ``derived/peeling-threshold/d*`` anchors of :mod:`repro.certify.anchors`),
  and asymptotic core sizes;
- :mod:`repro.peeling.experiment` — the threshold-comparison experiment of
  [30]: success probability vs edge density for fully random vs
  double-hashed edges.
"""

from repro.peeling.decoder import PeelResult, peel, peel_reference
from repro.peeling.density_evolution import (
    core_edge_fraction,
    peeling_threshold,
    survival_fixed_point,
)
from repro.peeling.experiment import threshold_experiment
from repro.peeling.hypergraph import build_hypergraph

__all__ = [
    "PeelResult",
    "build_hypergraph",
    "core_edge_fraction",
    "peel",
    "peel_reference",
    "peeling_threshold",
    "survival_fixed_point",
    "threshold_experiment",
]
