"""Telemetry snapshots and the operator report."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    CacheTelemetry,
    ClientTelemetry,
    DeploymentTelemetry,
    _maxrss_to_bytes,
    peak_rss_bytes,
    render_report,
)


@pytest.fixture(scope="module")
def snapshot(built_deployment, small_dataset):
    client = built_deployment.client(0)
    client.search_batch(small_dataset.queries, 5, ef_search=16)
    client.search_batch(small_dataset.queries, 5, ef_search=16)
    return DeploymentTelemetry.from_deployment(built_deployment)


class TestClientTelemetry:
    def test_counters_populated(self, snapshot):
        client = snapshot.clients[0]
        assert client.round_trips > 0
        assert client.bytes_read > 0
        assert client.network_time_us > 0
        assert client.compute_time_us > 0
        assert client.metadata_version >= 1

    def test_cache_counters(self, snapshot):
        cache = snapshot.clients[0].cache
        assert cache.capacity_clusters >= 1
        assert cache.resident_clusters <= cache.capacity_clusters
        assert cache.hits + cache.misses > 0
        assert 0.0 <= cache.hit_rate <= 1.0

    def test_dram_within_budget(self, snapshot, built_deployment):
        """The snapshot's DRAM is the meta-HNSW plus the cache's bytes,
        and the cache is within its cluster capacity."""
        client = snapshot.clients[0]
        meta_bytes = built_deployment.client(0).meta.serialized_size_bytes()
        assert client.dram_used_bytes == (meta_bytes
                                          + client.cache.cached_bytes)
        assert client.cache.cached_bytes > 0
        assert (client.cache.resident_clusters
                <= client.cache.capacity_clusters)

    def test_control_path_counted(self, snapshot):
        assert snapshot.clients[0].control_requests >= 1


class TestDeploymentTelemetry:
    def test_memory_pool_numbers(self, snapshot):
        assert snapshot.registered_bytes >= snapshot.region_capacity_bytes
        assert snapshot.allocator_live_bytes > 0
        assert snapshot.num_clusters == 12
        assert snapshot.num_groups == 6

    def test_daemon_counted(self, snapshot):
        assert snapshot.daemon_requests >= 1
        assert snapshot.daemon_cpu_us > 0

    def test_aggregates(self, snapshot):
        assert snapshot.total_round_trips == sum(
            client.round_trips for client in snapshot.clients)
        assert snapshot.total_bytes_read == sum(
            client.bytes_read for client in snapshot.clients)


class TestRenderReport:
    def test_report_sections(self, snapshot):
        report = render_report(snapshot)
        assert "=== memory pool ===" in report
        assert "=== compute pool ===" in report
        assert "metadata v1" in report

    def test_report_lists_every_instance(self, snapshot):
        report = render_report(snapshot)
        for client in snapshot.clients:
            assert client.name in report

    def test_cache_section_says_where_cluster_bytes_came_from(self,
                                                               snapshot):
        report = render_report(snapshot)
        assert "=== cluster cache ===" in report
        for client in snapshot.clients:
            cache = client.cache
            assert (f"{cache.hits} hits, {cache.misses} fetched, "
                    f"{cache.evictions} evicted, {cache.streamed} streamed"
                    in report)
        assert snapshot.clients[0].cache.streamed > 0


class TestRenderReportFrontDoorSection:
    """The report grows a front-door section when handed a LoadReport.

    End-to-end coverage (real FrontDoor runs) lives in
    ``tests/frontdoor/test_door.py``; here we pin the rendering itself —
    column presence and honest counts — on a real (tiny) run.
    """

    @pytest.fixture(scope="class")
    def frontdoor_report(self, built_deployment, small_dataset):
        import numpy as np

        from repro.frontdoor import (FrontDoor, FrontDoorConfig,
                                     make_requests, poisson_arrivals)

        client = built_deployment.make_client(
            built_deployment.client().scheme, name="telemetry-door")
        rng = np.random.default_rng(13)
        requests = make_requests(
            poisson_arrivals(3000.0, 24, rng), small_dataset.queries,
            k=5, slo_us=50_000.0, rng=rng, tenants=("gold", "bronze"),
            ef_search=16)
        door = FrontDoor(client,
                         FrontDoorConfig(max_wait_us=1000.0, max_batch=8))
        return door.run(requests)

    def test_section_and_columns(self, snapshot, frontdoor_report):
        report = render_report(snapshot, frontdoor=frontdoor_report)
        assert "=== front door ===" in report
        assert "queue delay" in report
        assert "in wave" in report
        assert "e2e latency" in report
        assert "shed@admission" in report
        for column in ("tenant", "offered", "served", "degraded",
                       "q_p99us", "l_p50us", "l_p99us", "share"):
            assert column in report

    def test_counts_match_the_load_report(self, snapshot, frontdoor_report):
        report = render_report(snapshot, frontdoor=frontdoor_report)
        assert f"{frontdoor_report.offered} offered" in report
        assert f"{frontdoor_report.served} served" in report
        assert "gold" in report and "bronze" in report

    def test_omitting_frontdoor_keeps_the_report_unchanged(self, snapshot):
        assert "front door" not in render_report(snapshot)


class TestHitRateEdgeCases:
    def test_zero_lookups(self):
        cache = CacheTelemetry(capacity_clusters=1, resident_clusters=0,
                               cached_bytes=0, hits=0, misses=0,
                               evictions=0, invalidations=0)
        assert cache.hit_rate == 0.0

    def test_from_client_no_control(self, built_deployment):
        client = built_deployment.client(0)
        saved_control = client.control
        client.control = None
        try:
            telemetry = ClientTelemetry.from_client(client)
            assert telemetry.control_requests == 0
        finally:
            client.control = saved_control


class TestPeakRssUnits:
    """``ru_maxrss`` is KB on Linux/BSD but bytes on macOS (satellite of
    the fault-path PR: the scale benchmark's RSS gate read 1024x high on
    macOS before the normalization split)."""

    def test_linux_reports_kilobytes(self):
        assert _maxrss_to_bytes(2048, platform="linux") == 2048 * 1024

    def test_macos_reports_bytes(self):
        assert _maxrss_to_bytes(2048, platform="darwin") == 2048

    def test_bsd_falls_into_the_kilobyte_default(self):
        assert _maxrss_to_bytes(100, platform="freebsd14") == 100 * 1024

    def test_current_platform_is_positive_and_plausible(self):
        rss = peak_rss_bytes()
        # A python process with numpy loaded needs well over 4 MiB; a
        # unit mix-up (bytes treated as KB or vice versa) lands far
        # outside this window.
        assert 4 * 2**20 < rss < 1 * 2**40
