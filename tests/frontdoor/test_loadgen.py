"""Arrival-process generators: shape, determinism, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.frontdoor import bursty_arrivals, make_requests, poisson_arrivals


class TestPoisson:
    def test_shape_and_monotonicity(self):
        arrivals = poisson_arrivals(1000.0, 200, np.random.default_rng(0),
                                    start_us=500.0)
        assert len(arrivals) == 200
        assert arrivals[0] > 500.0
        assert np.all(np.diff(arrivals) > 0)

    def test_rate_is_roughly_honoured(self):
        arrivals = poisson_arrivals(2000.0, 4000, np.random.default_rng(1))
        mean_gap = float(np.mean(np.diff(arrivals)))
        assert 400.0 < mean_gap < 600.0  # nominal 500 us

    def test_same_seed_same_arrivals(self):
        a = poisson_arrivals(1000.0, 50, np.random.default_rng(7))
        b = poisson_arrivals(1000.0, 50, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ConfigError):
            poisson_arrivals(0.0, 10, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            poisson_arrivals(100.0, 0, np.random.default_rng(0))


class TestBursty:
    def test_bursts_are_denser_than_idle(self):
        burst_us, idle_us = 10_000.0, 10_000.0
        arrivals = bursty_arrivals(10_000.0, 100.0, burst_us, idle_us,
                                   500, np.random.default_rng(2))
        assert np.all(np.diff(arrivals) > 0)
        period = burst_us + idle_us
        in_burst = (arrivals % period) < burst_us
        assert in_burst.mean() > 0.9

    def test_zero_idle_rate_skips_idle_phases(self):
        arrivals = bursty_arrivals(5000.0, 0.0, 5000.0, 20_000.0, 100,
                                   np.random.default_rng(3))
        period = 25_000.0
        assert np.all((arrivals % period) < 5000.0)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            bursty_arrivals(0.0, 0.0, 1.0, 1.0, 1, rng)
        with pytest.raises(ConfigError):
            bursty_arrivals(100.0, 0.0, 0.0, 1.0, 1, rng)
        with pytest.raises(ConfigError):
            bursty_arrivals(100.0, 0.0, 1.0, 1.0, 0, rng)


class TestMakeRequests:
    def queries(self) -> np.ndarray:
        return np.arange(12, dtype=np.float32).reshape(3, 4)

    def test_cyclic_queries_and_sequential_ids(self):
        arrivals = np.array([10.0, 20.0, 30.0, 40.0])
        requests = make_requests(arrivals, self.queries(), k=5,
                                 slo_us=1000.0,
                                 rng=np.random.default_rng(0),
                                 first_request_id=100)
        assert [r.request_id for r in requests] == [100, 101, 102, 103]
        assert np.array_equal(requests[3].query, self.queries()[0])
        assert requests[2].arrival_us == 30.0

    def test_tenant_weights_bias_assignment(self):
        arrivals = np.arange(1.0, 2001.0)
        requests = make_requests(arrivals, self.queries(), k=5,
                                 slo_us=1000.0,
                                 rng=np.random.default_rng(1),
                                 tenants=("hot", "cold"),
                                 tenant_weights=(9.0, 1.0))
        hot = sum(1 for r in requests if r.tenant == "hot")
        assert 0.85 < hot / len(requests) < 0.95

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            make_requests(np.array([1.0]), np.zeros((0, 4)), 5, 1000.0, rng)
        with pytest.raises(ConfigError):
            make_requests(np.array([1.0]), self.queries(), 5, 1000.0, rng,
                          tenants=())
        with pytest.raises(ConfigError):
            make_requests(np.array([1.0]), self.queries(), 5, 1000.0, rng,
                          tenants=("a", "b"), tenant_weights=(1.0,))
