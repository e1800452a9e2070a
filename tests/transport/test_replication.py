"""Replicated memory pool: selection, failover, fan-out, fsck repair.

Covers the failover contract end to end — payloads from a surviving
replica are bit-identical, an exhausted replica leaves the selectable
set, and the fsck-driven repair pass restores byte-identical extents —
plus the selector's determinism rule (same seed + same verb sequence =
same replica choices, so traces replay).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Deployment
from repro.core import DHnswConfig
from repro.core.client import DHnswClient
from repro.core.fsck import fsck, repair_replica
from repro.datasets.synthetic import make_clustered
from repro.errors import ConfigError, LayoutError, NoHealthyReplicaError
from repro.rdma import CostModel, MemoryNode
from repro.rdma.clock import SimClock
from repro.rdma.stats import RdmaStats
from repro.transport import (
    FaultInjectingTransport,
    FaultKind,
    FaultPlan,
    ReadDescriptor,
    ReplicaHealth,
    ReplicaSelector,
    ReplicatedTransport,
    RetryingTransport,
    connect,
)

PAYLOAD = bytes(range(256))


def make_pool(k: int = 3, seed: int = 0, plans: list[FaultPlan] | None = None):
    """``k`` byte-identical replica nodes behind one ReplicatedTransport.

    Every replica transport shares one clock and stats ledger (one
    compute NIC), mirroring the client's composition: an optional fault
    layer under a retrying layer, per replica.
    """
    clock, stats, cost = SimClock(), RdmaStats(), CostModel()
    nodes = []
    stack = []
    for i in range(k):
        node = MemoryNode(name=f"m{i}")
        region = node.register(4096)
        node.write(region.rkey, region.base_addr, PAYLOAD)
        base = connect(node, clock, cost, stats)
        if plans is not None:
            base = FaultInjectingTransport(base, plans[i], timeout_us=500.0)
        stack.append(RetryingTransport(base, max_retries=2))
        nodes.append((node, region))
    return ReplicatedTransport(stack, seed=seed), nodes


def answers(batch):
    """Result ids as plain lists (arrays compare ambiguously)."""
    return [result.ids.tolist() for result in batch.results]


def dead_plan() -> FaultPlan:
    """A plan that times out every READ (a killed node)."""
    return FaultPlan(fault_rate=1.0, kinds=(FaultKind.TIMEOUT,))


class TestReplicaSelector:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ReplicaSelector(0)

    def test_prefers_lower_queue_depth(self):
        selector = ReplicaSelector(3, seed=1)
        selector.begin_read(0)
        selector.begin_read(1)
        assert selector.select() == 2

    def test_unhealthy_and_excluded_are_ineligible(self):
        selector = ReplicaSelector(3, seed=1)
        selector.mark_unhealthy(0)
        assert selector.select(exclude={1}) == 2
        selector.mark_unhealthy(2)
        with pytest.raises(NoHealthyReplicaError):
            selector.select(exclude={1})

    def test_repaired_replica_is_selectable_again(self):
        selector = ReplicaSelector(2, seed=1)
        selector.mark_unhealthy(0)
        assert selector.healthy_replicas() == [1]
        selector.mark_repaired(0)
        assert selector.health(0) is ReplicaHealth.HEALTHY
        assert selector.healthy_replicas() == [0, 1]

    def test_tie_breaks_replay_for_a_given_seed(self):
        picks = []
        for _ in range(2):
            selector = ReplicaSelector(4, seed=42)
            picks.append([selector.select() for _ in range(32)])
        assert picks[0] == picks[1]
        assert len(set(picks[0])) > 1  # ties actually spread load


class TestFailover:
    def test_failover_read_is_bit_identical(self):
        plans = [dead_plan(), FaultPlan(), FaultPlan()]
        pool, nodes = make_pool(3, seed=7, plans=plans)
        _, region = nodes[0]
        healthy_pool, _ = make_pool(3, seed=7)
        want = bytes(healthy_pool.read(region.rkey, region.base_addr, 96))
        # Drive reads until the dead replica gets selected and fails over.
        for _ in range(8):
            got = bytes(pool.read(region.rkey, region.base_addr, 96))
            assert got == want == PAYLOAD[:96]
        assert pool.stats.failovers == 1
        assert pool.selector.health(0) is ReplicaHealth.UNHEALTHY
        assert pool.pending_repairs == [0]
        # Retry budget was spent before the failover kicked in.
        assert pool.stats.retries > 0
        assert pool.stats.faults_injected == plans[0].faults_injected

    def test_unhealthy_replica_gets_no_further_reads(self):
        plans = [dead_plan(), FaultPlan(), FaultPlan()]
        pool, nodes = make_pool(3, seed=7, plans=plans)
        _, region = nodes[0]
        for _ in range(8):
            pool.read(region.rkey, region.base_addr, 32)
        after_failover = pool.selector.reads_by_replica[0]
        for _ in range(16):
            pool.read(region.rkey, region.base_addr, 32)
        assert pool.selector.reads_by_replica[0] == after_failover
        assert sum(pool.selector.reads_by_replica[1:]) >= 16

    def test_all_replicas_dead_raises_with_last_error(self):
        pool, nodes = make_pool(2, plans=[dead_plan(), dead_plan()])
        _, region = nodes[0]
        with pytest.raises(NoHealthyReplicaError) as excinfo:
            pool.read(region.rkey, region.base_addr, 32)
        assert excinfo.value.last_error is not None
        assert pool.stats.failovers == 2

    def test_async_poll_fails_over_synchronously(self):
        plans = [dead_plan(), dead_plan(), FaultPlan()]
        pool, nodes = make_pool(3, seed=7, plans=plans)
        _, region = nodes[0]
        descriptors = [ReadDescriptor(region.rkey, region.base_addr, 64)]
        for _ in range(6):
            token = pool.read_batch_async(descriptors)
            (payload,) = pool.poll(token)
            assert bytes(payload) == PAYLOAD[:64]
        assert pool.selector.health(2) is ReplicaHealth.HEALTHY
        assert pool.stats.failovers >= 1

    def test_writes_fan_out_to_all_healthy_replicas(self):
        pool, nodes = make_pool(3)
        _, region = nodes[0]
        pool.write(region.rkey, region.base_addr, b"\x99" * 16)
        for node, node_region in nodes:
            got = bytes(node.read(node_region.rkey,
                                  node_region.base_addr, 16))
            assert got == b"\x99" * 16

    def test_atomics_agree_across_replicas(self):
        pool, nodes = make_pool(3)
        _, region = nodes[0]
        addr = region.base_addr + 1024
        assert pool.faa(region.rkey, addr, 5) == 0
        assert pool.faa(region.rkey, addr, 1) == 5
        for node, node_region in nodes:
            raw = bytes(node.read(node_region.rkey, addr, 8))
            assert int.from_bytes(raw, "little") == 6

    def test_selection_is_deterministic_across_runs(self):
        splits = []
        for _ in range(2):
            pool, nodes = make_pool(3, seed=13)
            _, region = nodes[0]
            for _ in range(24):
                pool.read(region.rkey, region.base_addr, 32)
            splits.append(list(pool.selector.reads_by_replica))
        assert splits[0] == splits[1]
        assert sum(splits[0]) == 24


@pytest.fixture(scope="module")
def replicated_deployment() -> Deployment:
    generator = np.random.default_rng(11)
    corpus = make_clustered(600, 16, num_clusters=6, cluster_std=0.08,
                            rng=generator)
    config = DHnswConfig(num_representatives=6, nprobe=2, ef_meta=12,
                         cache_fraction=0.34,
                         overflow_capacity_records=8, seed=7,
                         replication_factor=3)
    return Deployment(corpus, config, cost_model=CostModel())


class TestReplicatedDeployment:
    def test_build_fans_out_byte_identical_replicas(
            self, replicated_deployment):
        layout = replicated_deployment.layout
        assert len(layout.memory_nodes) == 3
        length = layout.region.length
        primary = bytes(layout.memory_nodes[0].read(
            layout.rkey, layout.addr(0), length))
        for node in layout.memory_nodes[1:]:
            mirror = bytes(node.read(layout.rkey, layout.addr(0), length))
            assert mirror == primary
        for replica in range(3):
            assert fsck(layout, replica=replica).clean

    def test_replication_factor_validation(self):
        with pytest.raises(ConfigError):
            DHnswConfig(replication_factor=0)

    def test_killed_replica_fails_over_with_identical_answers(
            self, replicated_deployment):
        deployment = replicated_deployment
        generator = np.random.default_rng(23)
        queries = make_clustered(16, 16, num_clusters=6, cluster_std=0.08,
                                 rng=generator)
        plans = [FaultPlan() for _ in range(3)]
        client = DHnswClient(
            deployment.layout, deployment.meta, deployment.config,
            cost_model=CostModel(), name="chaos",
            max_retries=2,
            replica_transport_factory=lambda base, i:
                FaultInjectingTransport(base, plans[i], timeout_us=500.0))
        baseline = deployment.make_client(deployment.scheme, name="calm")
        want = baseline.search_batch(queries, k=5)

        healthy = client.search_batch(queries, k=5)
        assert answers(healthy) == answers(want)

        # Kill replica 0 mid-run: every READ it serves now times out.
        plans[0].fault_rate = 1.0
        plans[0].kinds = (FaultKind.TIMEOUT,)
        degraded = client.search_batch(queries, k=5)
        assert answers(degraded) == answers(want)
        replicated = client._replicated_transport()
        assert client.node.stats.failovers >= 1
        assert replicated.selector.health(0) is ReplicaHealth.UNHEALTHY
        assert replicated.pending_repairs == [0]

        # Revive + repair: nothing was corrupted (timeouts only), so the
        # repair pass verifies byte-identity and readmits the replica.
        plans[0].fault_rate = 0.0
        reports = client.run_pending_repairs()
        assert [report.replica for report in reports] == [0]
        assert all(report.clean for report in reports)
        assert replicated.selector.health(0) is ReplicaHealth.HEALTHY
        repaired = client.search_batch(queries, k=5)
        assert answers(repaired) == answers(want)
        client.close()
        baseline.close()

    def test_repair_restores_byte_identical_extents(
            self, replicated_deployment):
        layout = replicated_deployment.layout
        target_node = layout.memory_nodes[1]
        cluster = layout.metadata.clusters[0]
        # Scribble into a cluster blob on replica 1 (simulated bit rot).
        target_node.write(layout.rkey,
                          layout.addr(cluster.blob_offset + 32),
                          b"\xde\xad" * 32)
        assert not fsck(layout, replica=1).clean
        report = repair_replica(layout, target=1, source=0)
        assert report.extents_damaged == report.extents_repaired == 1
        assert report.bytes_repaired == cluster.blob_length
        assert fsck(layout, replica=1).clean
        length = layout.region.length
        primary = bytes(layout.memory_nodes[0].read(
            layout.rkey, layout.addr(0), length))
        mirror = bytes(target_node.read(layout.rkey, layout.addr(0), length))
        assert mirror == primary
        # A second pass finds nothing left to fix.
        assert repair_replica(layout, target=1, source=0).clean

    def test_repair_validates_indices(self, replicated_deployment):
        layout = replicated_deployment.layout
        with pytest.raises(LayoutError):
            repair_replica(layout, target=1, source=1)
        with pytest.raises(LayoutError):
            repair_replica(layout, target=5, source=0)
