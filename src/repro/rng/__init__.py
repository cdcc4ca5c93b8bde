"""Pseudo-random number generation substrate.

The paper's simulations used the C ``drand48`` generator as a proxy for
"fully random" hash values.  This package provides:

- :class:`~repro.rng.drand48.Drand48` — a bit-exact pure-Python port of the
  POSIX 48-bit LCG family (``drand48``/``lrand48``/``srand48``), so the
  paper's exact randomness source can be used in ablations;
- :class:`~repro.rng.splitmix.SplitMix64` — the standard 64-bit seeding mixer;
- :mod:`~repro.rng.streams` — deterministic spawning of independent numpy
  generator streams for parallel trials.

The bespoke generators implement a tiny shared protocol (``next_u64`` /
``random`` / ``integers``) defined in :mod:`repro.rng.base` so the choice
schemes can consume any of them interchangeably.
"""

from repro.rng.adapter import GeneratorAdapter
from repro.rng.base import BitGenerator64
from repro.rng.drand48 import Drand48
from repro.rng.splitmix import SplitMix64
from repro.rng.streams import default_generator, spawn_seeds

__all__ = [
    "BitGenerator64",
    "Drand48",
    "GeneratorAdapter",
    "SplitMix64",
    "default_generator",
    "spawn_seeds",
]
