"""Scheme-to-policy mapping."""

from __future__ import annotations

from repro.core.baselines import Scheme, policy_for


def test_naive_disables_everything():
    policy = policy_for(Scheme.NAIVE)
    assert not policy.query_aware_loading
    assert not policy.doorbell_batching


def test_no_doorbell_keeps_cache_and_dedup():
    policy = policy_for(Scheme.NO_DOORBELL)
    assert policy.query_aware_loading
    assert not policy.doorbell_batching


def test_full_scheme_enables_all():
    policy = policy_for(Scheme.DHNSW)
    assert policy.query_aware_loading
    assert policy.doorbell_batching


def test_every_scheme_has_a_policy():
    for scheme in Scheme:
        assert policy_for(scheme) is not None


def test_scheme_values_are_stable_identifiers():
    assert Scheme.NAIVE.value == "naive-d-hnsw"
    assert Scheme.NO_DOORBELL.value == "d-hnsw-no-doorbell"
    assert Scheme.DHNSW.value == "d-hnsw"
