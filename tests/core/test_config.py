"""DHnswConfig validation and derived quantities."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import META_PARAMS, DHnswConfig, FrontDoorConfig
from repro.errors import ConfigError
from repro.hnsw.params import HnswParams
from repro.serving.engine import ServingEngine


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("num_representatives", 0),
        ("nprobe", 0),
        ("ef_meta", 0),
        ("cache_fraction", 0.0),
        ("cache_fraction", 1.5),
        ("overflow_capacity_records", -1),
        ("region_headroom", 0.5),
        # A NaN passes every range check (the build then died converting
        # it to a region size); an infinity is no size either.
        ("region_headroom", float("nan")),
        ("region_headroom", float("inf")),
        ("cache_fraction", float("nan")),
        ("nprobe", float("nan")),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            DHnswConfig(**{field: value})

    def test_meta_params_must_be_three_layered(self):
        """The meta-HNSW's parameters are a constant with three layers
        (L0-L2, paper §3.1); a config cannot carry others."""
        assert META_PARAMS.max_level == 2
        with pytest.raises(TypeError, match="meta_params"):
            DHnswConfig(meta_params=HnswParams(m=8, max_level=4))

    def test_defaults_valid(self):
        DHnswConfig()


class TestDerivedRepresentatives:
    def test_paper_ratio_preserved(self):
        # 300 corpus vectors per representative, as 500 reps : 1M ratio
        # (order of magnitude).
        assert DHnswConfig().derived_num_representatives(30_000) == 100

    def test_floor_of_four(self):
        assert DHnswConfig().derived_num_representatives(50) == 4

    def test_cap_of_500(self):
        assert DHnswConfig().derived_num_representatives(10**6) == 500

    def test_explicit_value_wins(self):
        config = DHnswConfig(num_representatives=42)
        assert config.derived_num_representatives(10**6) == 42

    def test_explicit_value_clipped_to_corpus(self):
        config = DHnswConfig(num_representatives=100)
        assert config.derived_num_representatives(30) == 30

    def test_invalid_corpus_size(self):
        with pytest.raises(ConfigError):
            DHnswConfig().derived_num_representatives(0)


class TestCacheCapacity:
    def test_ten_percent_default(self):
        assert DHnswConfig().cache_capacity_clusters(500) == 50

    def test_minimum_one(self):
        assert DHnswConfig().cache_capacity_clusters(3) == 1

    def test_custom_fraction(self):
        config = DHnswConfig(cache_fraction=0.5)
        assert config.cache_capacity_clusters(10) == 5

    def test_invalid_cluster_count(self):
        with pytest.raises(ConfigError):
            DHnswConfig().cache_capacity_clusters(0)


#: Every ``int`` / ``int | None`` field of both configs.
INTEGER_FIELDS = [(cls, field.name) for cls in (DHnswConfig, FrontDoorConfig)
                  for field in dataclasses.fields(cls)
                  if field.type in ("int", "int | None")]
EACH_INTEGER_FIELD = pytest.mark.parametrize(
    "cls,field", INTEGER_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, name in INTEGER_FIELDS])


def test_integer_fields_are_all_listed():
    assert len(INTEGER_FIELDS) == 10


@pytest.mark.parametrize("value", [2.5, 3.0, True])
@EACH_INTEGER_FIELD
def test_integer_fields_refuse_non_integers(cls, field, value):
    """A float passed the range checks and failed (``nprobe``,
    ``overflow_capacity_records``) or rounded (``max_batch``) far from
    here, or served silently (``ef_meta``); a bool is no count."""
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        cls(**{field: value})


@EACH_INTEGER_FIELD
def test_integer_fields_take_numpy_integers(cls, field):
    assert getattr(cls(**{field: np.int64(3)}), field) == 3


def test_search_workers_is_retired_at_its_one_value():
    """The search worker pool is gone; the keyword stays for callers that
    spell the one value out."""
    assert DHnswConfig(search_workers=1) == DHnswConfig()
    assert DHnswConfig(search_workers=1).replace(nprobe=2).nprobe == 2
    for value in (0, 2, 4):
        with pytest.raises(ConfigError, match="search worker pool"):
            DHnswConfig(search_workers=value)


def test_replace_round_trips():
    config = DHnswConfig(nprobe=2)
    changed = config.replace(nprobe=8)
    assert changed.nprobe == 8
    assert config.nprobe == 2


class TestEfSearchDefault:
    """The config carries no beam default: a search without
    ``ef_search`` uses the paper's ``2k`` rule."""

    def test_none_keeps_two_k_rule(self):
        assert ServingEngine.resolve_ef(10, None) == 20

    def test_valid_value_accepted(self):
        assert ServingEngine.resolve_ef(10, 64) == 64
        assert ServingEngine.resolve_ef(100, 5) == 100  # never below k

    @pytest.mark.parametrize("bad", [0, -5])
    def test_invalid_value_rejected(self, bad):
        with pytest.raises(TypeError, match="ef_search_default"):
            DHnswConfig(ef_search_default=bad)

