"""Validation and derived values of :class:`HnswParams`."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.hnsw.params import HnswParams


class TestValidation:
    def test_m_lower_bound(self):
        with pytest.raises(ConfigError, match="m must be >= 2"):
            HnswParams(m=1)

    def test_ef_construction_lower_bound(self):
        with pytest.raises(ConfigError, match="ef_construction"):
            HnswParams(ef_construction=0)

    def test_m0_must_cover_m(self):
        """Layer 0 allows ``2 * m``; no other bound can be set."""
        assert HnswParams(m=16).max_degree(0) == 32
        with pytest.raises(TypeError, match="m0"):
            HnswParams(m=16, m0=8)

    def test_negative_max_level(self):
        with pytest.raises(ConfigError, match="max_level"):
            HnswParams(max_level=-1)

    def test_nonpositive_level_mult(self):
        """The multiplier is ``1 / ln(m)``, positive for every valid
        ``m``; no other can be set."""
        assert HnswParams(m=2).level_mult > 0
        with pytest.raises(TypeError, match="level_mult"):
            HnswParams(level_mult=0.0)


class TestDerivedValues:
    def test_default_m0_doubles_m(self):
        assert HnswParams(m=12).max_degree(0) == 24

    def test_default_level_mult(self):
        params = HnswParams(m=16)
        assert params.level_mult == pytest.approx(1.0 / math.log(16))

    def test_max_degree_per_level(self):
        params = HnswParams(m=8)
        assert params.max_degree(0) == 16
        assert params.max_degree(1) == 8
        assert params.max_degree(5) == 8

    def test_replace_preserves_others(self):
        params = HnswParams(m=8, ef_construction=50)
        changed = params.replace(ef_construction=99)
        assert changed.ef_construction == 99
        assert changed.m == 8
        assert params.ef_construction == 50  # original untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            HnswParams().m = 3  # type: ignore[misc]
