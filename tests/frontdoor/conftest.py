"""Front-door fixtures: fresh clients over the shared tiny deployment.

Every test that runs a :class:`~repro.frontdoor.FrontDoor` gets a fresh
client (own clock, cold cache) so simulated timelines start at zero and
schedule-replay assertions compare like with like.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cluster import Deployment
from repro.frontdoor import FrontDoor, FrontDoorConfig
from repro.rdma import CostModel

_names = itertools.count()


@pytest.fixture()
def fresh_client(built_deployment):
    """A private client over the shared layout (fresh clock and cache)."""
    return built_deployment.make_client(
        built_deployment.client().scheme, name=f"door{next(_names)}")


@pytest.fixture()
def make_door(built_deployment):
    """Factory: a FrontDoor on its own fresh client each call."""

    def _make(config: FrontDoorConfig | None = None, tenants=None):
        client = built_deployment.make_client(
            built_deployment.client().scheme, name=f"door{next(_names)}")
        return FrontDoor(client, config, tenants)

    return _make


@pytest.fixture(scope="session")
def roomy_deployment(small_dataset, small_config):
    """The tiny corpus with a cache of 6 of its 12 clusters: every query
    probes 3, so a warm cache holds a few queries' clusters whole and
    their requests are served at once."""
    return Deployment(small_dataset.vectors,
                      small_config.replace(cache_fraction=0.5),
                      cost_model=CostModel())
