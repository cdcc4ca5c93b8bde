"""Unified string-keyed scheme registry: one factory for every scheme.

Historically the scheme constructors were inconsistent — engine schemes
take ``(n_bins, d)`` while the keyed hash families take ``(n, rng)`` — and
``make_scheme`` covered only the engine schemes.  This module is the one
place a scheme name resolves to a constructor:

- :func:`make_scheme` builds an engine-facing
  :class:`~repro.hashing.base.ChoiceScheme` for *any* registered name.
  Keyed hash-family names (``"multiply-shift"``, ``"tabulation"``, …) are
  wrapped in a :class:`~repro.hashing.keyed.KeyedStreamScheme` so every
  engine and kernel can consume them unchanged.
- :func:`make_keyed_scheme` builds the keyed
  :class:`~repro.hashing.keyed.KeyedChoices` form for the service layer
  (:mod:`repro.service`), where keys are supplied by the caller.
- :func:`resolve_scheme_name` mirrors the :mod:`repro.kernels` selection
  idiom: explicit name > ``REPRO_SCHEME`` environment variable > default
  (``"double"``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.base import ChoiceScheme
from repro.hashing.block import BlockChoices
from repro.hashing.double_hashing import DoubleHashingChoices
from repro.hashing.fully_random import FullyRandomChoices
from repro.hashing.keyed import (
    DoubleHashedKeyed,
    IndependentKeyed,
    KeyedChoices,
    KeyedStreamScheme,
)
from repro.hashing.partitioned import (
    PartitionedDoubleHashing,
    PartitionedFullyRandom,
)
from repro.rng import default_generator

__all__ = [
    "SCHEME_ENV_VAR",
    "DEFAULT_SCHEME",
    "SCHEME_INFO",
    "SchemeInfo",
    "keyed_scheme_names",
    "make_keyed_scheme",
    "make_scheme",
    "resolve_scheme_name",
    "scheme_info",
    "scheme_names",
]

SCHEME_ENV_VAR = "REPRO_SCHEME"
DEFAULT_SCHEME = "double"

# Engine-facing constructors: name -> f(n, d, rng) -> ChoiceScheme.  The
# rng argument seeds *construction* (hash-family parameter draws); the
# stateless schemes ignore it — their randomness arrives per batch.
_ENGINE_BUILDERS: dict = {
    "random": lambda n, d, rng: FullyRandomChoices(n, d, replacement=False),
    "random-replace": lambda n, d, rng: FullyRandomChoices(n, d, replacement=True),
    "double": lambda n, d, rng: DoubleHashingChoices(n, d),
    "random-left": lambda n, d, rng: PartitionedFullyRandom(n, d),
    "double-left": lambda n, d, rng: PartitionedDoubleHashing(n, d),
    "blocks": lambda n, d, rng: BlockChoices(n, d),
}

# Keyed constructors: name -> f(n, d, rng) -> KeyedChoices.  The names
# "double" and "random" deliberately exist in both tables: in a keyed
# context they mean the keyed analogue of the same process (two
# multiply-shift hashes double-hashed, resp. d independent hashes).
_KEYED_BUILDERS: dict = {
    "double": lambda n, d, rng: DoubleHashedKeyed(
        n, d, family="multiply-shift", rng=rng
    ),
    "random": lambda n, d, rng: IndependentKeyed(
        n, d, family="multiply-shift", rng=rng
    ),
    "multiply-shift": lambda n, d, rng: DoubleHashedKeyed(
        n, d, family="multiply-shift", rng=rng
    ),
    "tabulation": lambda n, d, rng: IndependentKeyed(
        n, d, family="tabulation", rng=rng
    ),
    "tabulation-double": lambda n, d, rng: DoubleHashedKeyed(
        n, d, family="tabulation", rng=rng
    ),
    "universal": lambda n, d, rng: IndependentKeyed(
        n, d, family="universal", rng=rng
    ),
    "pairwise": lambda n, d, rng: IndependentKeyed(
        n, d, family="pairwise", rng=rng
    ),
    "pairwise-double": lambda n, d, rng: DoubleHashedKeyed(
        n, d, family="pairwise", rng=rng
    ),
}


@dataclass(frozen=True)
class SchemeInfo:
    """One registry row of the hash-family zoo's empirical map.

    The single transcription point for each scheme's theory pedigree:
    ``docs/hash-families.md``, the EXPERIMENTS.md scheme-sweep section,
    and the drift check all render from this table, never from copied
    literals.

    Attributes
    ----------
    name:
        Registry name (a :func:`make_scheme` key).
    constructor:
        The class (and wiring) the name resolves to, human-readable.
    guarantee:
        The independence/uniformity guarantee the construction carries.
    citation:
        Where the guarantee (or the scheme) is proved or defined.
    """

    name: str
    constructor: str
    guarantee: str
    citation: str


#: Theory metadata for every registry name, keyed by name.
SCHEME_INFO: dict[str, SchemeInfo] = {
    info.name: info
    for info in (
        SchemeInfo(
            "random", "FullyRandomChoices (distinct)",
            "d fully random distinct bins per ball",
            "Mitzenmacher, SPAA 2014 (baseline)",
        ),
        SchemeInfo(
            "random-replace", "FullyRandomChoices (replacement)",
            "d fully random bins per ball, with replacement",
            "Mitzenmacher, SPAA 2014 (Sec. 2)",
        ),
        SchemeInfo(
            "double", "DoubleHashingChoices",
            "pairwise-uniform (f, g) drawn fresh per ball",
            "Mitzenmacher, SPAA 2014 (subject)",
        ),
        SchemeInfo(
            "random-left", "PartitionedFullyRandom",
            "one fully random choice per d-left subtable",
            "Voecking, JACM 2003",
        ),
        SchemeInfo(
            "double-left", "PartitionedDoubleHashing",
            "double-hashed choices over d-left subtables",
            "Mitzenmacher, SPAA 2014 (Table 7)",
        ),
        SchemeInfo(
            "blocks", "BlockChoices",
            "two values address d contiguous-block choices",
            "Kenthapadi-Panigrahy, SODA 2006",
        ),
        SchemeInfo(
            "multiply-shift", "DoubleHashedKeyed(multiply-shift)",
            "keyed double hashing; f, g 2-universal up to a factor 2",
            "Dietzfelbinger et al., J. Algorithms 1997",
        ),
        SchemeInfo(
            "tabulation", "IndependentKeyed(tabulation)",
            "d independent simple-tabulation hashes, 3-independent",
            "Patrascu-Thorup, JACM 2012; arXiv:1804.09684",
        ),
        SchemeInfo(
            "tabulation-double", "DoubleHashedKeyed(tabulation)",
            "keyed double hashing; f, g simple tabulation",
            "Patrascu-Thorup, JACM 2012; arXiv:1407.6846",
        ),
        SchemeInfo(
            "universal", "IndependentKeyed(universal)",
            "d independent Carter-Wegman mod-prime hashes, 2-universal",
            "Carter-Wegman, JCSS 1979",
        ),
        SchemeInfo(
            "pairwise", "IndependentKeyed(pairwise)",
            "d independent affine hashes mod 2^61-1, exactly pairwise independent",
            "Carter-Wegman, JCSS 1979; paper's closing remark",
        ),
        SchemeInfo(
            "pairwise-double", "DoubleHashedKeyed(pairwise)",
            "keyed double hashing; f, g exactly pairwise independent",
            "Carter-Wegman, JCSS 1979; paper's closing remark",
        ),
    )
}


def scheme_info(name: str) -> SchemeInfo:
    """Look up a scheme's theory metadata by registry name."""
    key = resolve_scheme_name(name)
    return SCHEME_INFO[key]


def scheme_names() -> tuple[str, ...]:
    """All names :func:`make_scheme` accepts, sorted."""
    return tuple(sorted(set(_ENGINE_BUILDERS) | set(_KEYED_BUILDERS)))


def keyed_scheme_names() -> tuple[str, ...]:
    """All names :func:`make_keyed_scheme` accepts, sorted."""
    return tuple(sorted(_KEYED_BUILDERS))


def resolve_scheme_name(name: str | None = None) -> str:
    """Resolve a scheme name: explicit > ``REPRO_SCHEME`` env > default.

    Mirrors :func:`repro.kernels.resolve_backend`.  The resolved name is
    validated against the registry.
    """
    if name is None:
        name = os.environ.get(SCHEME_ENV_VAR) or None
    if name is None:
        name = DEFAULT_SCHEME
    name = name.strip().lower()
    if name not in set(_ENGINE_BUILDERS) | set(_KEYED_BUILDERS):
        raise ConfigurationError(
            f"unknown scheme {name!r}; expected one of {list(scheme_names())}"
        )
    return name


def make_scheme(
    name: str | None,
    n: int,
    d: int = 2,
    *,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> ChoiceScheme:
    """Build an engine-facing scheme by registry name.

    Parameters
    ----------
    name:
        Registry name (see :func:`scheme_names`): the engine schemes
        (``"random"``, ``"double"``, ``"random-left"``, ``"double-left"``,
        ``"random-replace"``, ``"blocks"``) plus the keyed hash families
        (``"multiply-shift"``, ``"tabulation"``, ``"tabulation-double"``,
        ``"universal"``, ``"pairwise"``, ``"pairwise-double"``), which
        are wrapped in a
        :class:`~repro.hashing.keyed.KeyedStreamScheme`.  ``None``
        resolves via :func:`resolve_scheme_name` (``REPRO_SCHEME`` env,
        then ``"double"``).
    n:
        Number of bins.
    d:
        Choices per ball (default 2, the paper's headline case).
    rng, seed:
        Construction-time randomness for the keyed families (hash-table
        parameter draws); at most one may be given.  Stateless engine
        schemes ignore both.

    Raises
    ------
    ValueError
        For an unknown name (kept for backward compatibility with the
        pre-registry factory).
    """
    if rng is not None and seed is not None:
        raise ConfigurationError("pass rng or seed, not both")
    key = resolve_scheme_name(None) if name is None else name.strip().lower()
    if key in _ENGINE_BUILDERS:
        return _ENGINE_BUILDERS[key](n, d, None)
    if key in _KEYED_BUILDERS:
        gen = rng if rng is not None else default_generator(seed)
        return KeyedStreamScheme(_KEYED_BUILDERS[key](n, d, gen))
    raise ValueError(
        f"unknown scheme {name!r}; expected one of {list(scheme_names())}"
    )


def make_keyed_scheme(
    name: str | None,
    n: int,
    d: int = 2,
    *,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> KeyedChoices:
    """Build the keyed form of a scheme for key-addressed consumers.

    ``name=None`` resolves through :func:`resolve_scheme_name` (explicit >
    ``REPRO_SCHEME`` env > ``"double"``).  Only keyed-capable names are
    accepted — the purely per-ball engine schemes have no keyed form.
    """
    name = resolve_scheme_name(name)
    if name not in _KEYED_BUILDERS:
        raise ConfigurationError(
            f"scheme {name!r} has no keyed form; keyed schemes: "
            f"{list(keyed_scheme_names())}"
        )
    if rng is not None and seed is not None:
        raise ConfigurationError("pass rng or seed, not both")
    gen = rng if rng is not None else default_generator(seed)
    return _KEYED_BUILDERS[name](n, d, gen)
