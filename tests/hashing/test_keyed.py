"""Tests for keyed choice schemes and the unified scheme registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hashing import (
    DoubleHashedKeyed,
    DoubleHashingChoices,
    IndependentKeyed,
    KeyedStreamScheme,
    keyed_scheme_names,
    make_keyed_scheme,
    make_scheme,
    resolve_scheme_name,
    scheme_names,
)
from repro.hashing.base import ChoiceScheme


class TestKeyedChoices:
    @pytest.mark.parametrize("family", ["multiply-shift", "tabulation",
                                        "universal"])
    def test_same_key_same_choices(self, family):
        keyed = DoubleHashedKeyed(1 << 10, 3, family=family,
                                  rng=np.random.default_rng(1))
        keys = np.arange(1, 501, dtype=np.int64)
        a = keyed.choices(keys)
        b = keyed.choices(keys)
        assert (a == b).all()
        assert a.shape == (500, 3)
        assert (0 <= a).all() and (a < 1 << 10).all()

    def test_double_hashed_choices_are_distinct(self):
        keyed = DoubleHashedKeyed(1 << 8, 4, rng=np.random.default_rng(2))
        ch = keyed.choices(np.arange(1, 2001, dtype=np.int64))
        for col in range(4):
            for other in range(col + 1, 4):
                assert (ch[:, col] != ch[:, other]).all()

    def test_prime_n_double_hashing(self):
        keyed = DoubleHashedKeyed(257, 3, family="universal",
                                  rng=np.random.default_rng(3))
        ch = keyed.choices(np.arange(1, 1001, dtype=np.int64))
        assert (ch[:, 0] != ch[:, 1]).all()
        assert (ch < 257).all()

    def test_composite_n_rejected(self):
        with pytest.raises(ConfigurationError):
            DoubleHashedKeyed(100, 2, rng=np.random.default_rng(4))

    def test_independent_keyed_shape(self):
        keyed = IndependentKeyed(1 << 8, 3, family="tabulation",
                                 rng=np.random.default_rng(5))
        ch = keyed.choices(np.arange(1, 101, dtype=np.int64))
        assert ch.shape == (100, 3)
        assert (keyed.choices(np.arange(1, 101, dtype=np.int64)) == ch).all()

    def test_fingerprints_identify_hash_functions(self):
        a = DoubleHashedKeyed(1 << 8, 2, rng=np.random.default_rng(6))
        b = DoubleHashedKeyed(1 << 8, 2, rng=np.random.default_rng(6))
        c = DoubleHashedKeyed(1 << 8, 2, rng=np.random.default_rng(7))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_stream_scheme_is_engine_compatible(self):
        keyed = DoubleHashedKeyed(1 << 8, 2, rng=np.random.default_rng(8))
        stream = KeyedStreamScheme(keyed)
        assert isinstance(stream, ChoiceScheme)
        out = stream.batch(1000, np.random.default_rng(9))
        assert out.shape == (1000, 2)
        assert (out[:, 0] != out[:, 1]).all()


class TestRegistry:
    def test_engine_names_build_engine_schemes(self):
        scheme = make_scheme("double", 1 << 8, 3)
        assert isinstance(scheme, DoubleHashingChoices)

    def test_keyed_names_wrap_in_stream_scheme(self):
        scheme = make_scheme("tabulation", 1 << 8, 2, seed=1)
        assert isinstance(scheme, KeyedStreamScheme)

    def test_unknown_name_raises_valueerror(self):
        with pytest.raises(ValueError):
            make_scheme("nope", 1 << 8, 2)

    def test_scheme_names_cover_both_registries(self):
        names = scheme_names()
        assert "double" in names and "tabulation" in names
        assert set(keyed_scheme_names()) <= set(names) | {"double", "random"}

    def test_resolution_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEME", "tabulation")
        assert resolve_scheme_name("double") == "double"
        assert resolve_scheme_name(None) == "tabulation"
        monkeypatch.delenv("REPRO_SCHEME")
        assert resolve_scheme_name(None) == "double"

    def test_env_resolution_in_make_scheme(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEME", "tabulation")
        scheme = make_scheme(None, 1 << 8, 2, seed=1)
        assert isinstance(scheme, KeyedStreamScheme)

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEME", "bogus")
        with pytest.raises(ConfigurationError):
            resolve_scheme_name(None)

    def test_make_keyed_scheme_rejects_engine_only_names(self):
        with pytest.raises(ConfigurationError):
            make_keyed_scheme("blocks", 1 << 8, 2)

    def test_seed_reproducibility(self):
        keys = np.arange(1, 101, dtype=np.int64)
        a = make_keyed_scheme("double", 1 << 8, 2, seed=3).choices(keys)
        b = make_keyed_scheme("double", 1 << 8, 2, seed=3).choices(keys)
        assert (a == b).all()


class TestDeprecationShims:
    """``make_scheme`` takes the table size only as ``n``."""

    def test_n_bins_kwarg_rejected(self):
        with pytest.raises(TypeError, match="n_bins"):
            make_scheme("double", n_bins=1 << 8, d=3)

    def test_n_and_n_bins_together_rejected(self):
        with pytest.raises(TypeError, match="n_bins"):
            make_scheme("double", 1 << 8, 2, n_bins=1 << 8)


class TestPairwiseRegistryEntries:
    """The pairwise family rides the same registry paths as the others."""

    def test_pairwise_names_registered(self):
        names = keyed_scheme_names()
        assert "pairwise" in names and "pairwise-double" in names

    def test_pairwise_wraps_independent_keyed(self):
        scheme = make_scheme("pairwise", 1 << 8, 3, seed=1)
        assert isinstance(scheme, KeyedStreamScheme)
        assert isinstance(scheme.keyed, IndependentKeyed)
        assert scheme.keyed.family == "pairwise"

    def test_pairwise_double_rows_distinct_at_prime_n(self):
        scheme = make_scheme("pairwise-double", 65537, 4, seed=2)
        out = scheme.batch(500, np.random.default_rng(3))
        srt = np.sort(out, axis=1)
        assert not (srt[:, 1:] == srt[:, :-1]).any()

    def test_env_resolution_reaches_pairwise(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEME", "pairwise")
        assert resolve_scheme_name(None) == "pairwise"
        assert resolve_scheme_name("double") == "double"
        scheme = make_scheme(None, 1 << 8, 2, seed=4)
        assert isinstance(scheme, KeyedStreamScheme)


class TestSchemeInfo:
    """SCHEME_INFO is the single transcription of the zoo's theory columns."""

    def test_covers_every_registered_name(self):
        from repro.hashing import SCHEME_INFO

        assert set(SCHEME_INFO) == set(scheme_names())

    def test_rows_are_complete(self):
        from repro.hashing import SCHEME_INFO

        for name, info in SCHEME_INFO.items():
            assert info.name == name
            assert info.constructor and info.guarantee and info.citation

    def test_lookup_follows_name_resolution(self, monkeypatch):
        from repro.hashing import scheme_info

        assert scheme_info("pairwise").citation.startswith("Carter-Wegman")
        monkeypatch.setenv("REPRO_SCHEME", "tabulation")
        assert scheme_info(None).name == "tabulation"
        monkeypatch.delenv("REPRO_SCHEME")
        assert scheme_info(None).name == "double"
