"""Zero-copy invariants of the mmap-backed memory substrate.

The fetch path's contract: bytes registered on the memory node are never
duplicated on their way to a decoded index — READ payloads are region
views, ``np.frombuffer`` decodes in place, and the graph adopts the
resulting read-only store.  These tests pin that property with
``np.shares_memory`` from the registered region all the way to the served
vector arrays, and bound the allocations of a large fetch with
``tracemalloc``.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from repro.hnsw import HnswIndex, HnswParams
from repro.layout.serializer import deserialize_cluster, serialize_cluster
from repro.rdma import CostModel, MemoryNode, QueuePair, ReadDescriptor, SimClock
from repro.transport.sim import SimRdmaTransport


@pytest.fixture()
def node() -> MemoryNode:
    return MemoryNode("zero-copy-mem")


def region_bytes(region) -> np.ndarray:
    """The registered region as a uint8 array view (no copy)."""
    return np.frombuffer(region.buffer, dtype=np.uint8)


def make_transport(node: MemoryNode) -> SimRdmaTransport:
    qp = QueuePair(node, SimClock(), CostModel())
    qp.connect()
    return SimRdmaTransport(qp)


def build_index(count: int, dim: int, seed: int = 0) -> HnswIndex:
    generator = np.random.default_rng(seed)
    index = HnswIndex(dim, HnswParams(m=6, ef_construction=30, seed=seed))
    index.add(generator.standard_normal((count, dim)).astype(np.float32),
              labels=list(range(count)))
    return index


class TestReadPayloadsAliasRegion:
    def test_read_returns_region_view(self, node):
        region = node.register(64)
        node.write(region.rkey, region.base_addr, b"payload")
        payload = node.read(region.rkey, region.base_addr, 7)
        assert isinstance(payload, memoryview)
        assert np.shares_memory(np.frombuffer(payload, dtype=np.uint8),
                                region_bytes(region))

    def test_transport_read_aliases_region(self, node):
        region = node.register(128)
        transport = make_transport(node)
        payload = transport.read(region.rkey, region.base_addr + 16, 32)
        assert np.shares_memory(np.frombuffer(payload, dtype=np.uint8),
                                region_bytes(region))

    def test_batch_and_async_payloads_alias_region(self, node):
        region = node.register(256)
        transport = make_transport(node)
        descriptors = [ReadDescriptor(region.rkey, region.base_addr + 32 * i,
                                      32) for i in range(4)]
        for payload in transport.read_batch(descriptors):
            assert np.shares_memory(np.frombuffer(payload, dtype=np.uint8),
                                    region_bytes(region))
        pending = transport.read_batch_async(descriptors)
        for payload in transport.poll(pending):
            assert np.shares_memory(np.frombuffer(payload, dtype=np.uint8),
                                    region_bytes(region))

    def test_payload_observes_later_writes(self, node):
        """Synchronous READ payloads are live views — one-sided semantics
        only freeze *in-flight async* batches, not returned sync views."""
        region = node.register(16)
        payload = node.read(region.rkey, region.base_addr, 4)
        node.write(region.rkey, region.base_addr, b"abcd")
        assert payload == b"abcd"


class TestWriteBufferProtocol:
    def test_write_accepts_numpy_memoryview_bytearray(self, node):
        region = node.register(64)
        array = np.arange(4, dtype=np.float32)
        assert node.write(region.rkey, region.base_addr, array) == 16
        assert node.write(region.rkey, region.base_addr + 16,
                          memoryview(b"viewed")) == 6
        assert node.write(region.rkey, region.base_addr + 32,
                          bytearray(b"mutable")) == 7
        assert node.read(region.rkey, region.base_addr, 16) == array.tobytes()
        assert node.read(region.rkey, region.base_addr + 16, 6) == b"viewed"
        assert node.read(region.rkey, region.base_addr + 32, 7) == b"mutable"

    def test_write_through_transport_from_array_slice(self, node):
        region = node.register(64)
        transport = make_transport(node)
        matrix = np.arange(16, dtype=np.float32).reshape(4, 4)
        transport.write(region.rkey, region.base_addr, matrix[1])
        assert (node.read(region.rkey, region.base_addr, 16)
                == matrix[1].tobytes())


class TestFileBackedRegions:
    def test_roundtrip_and_anonymous_equivalence(self, tmp_path):
        backed = MemoryNode("backed", backing_dir=tmp_path)
        region = backed.register(4096)
        payload = os.urandom(512)
        backed.write(region.rkey, region.base_addr + 64, payload)
        assert backed.read(region.rkey, region.base_addr + 64, 512) == payload

    def test_backing_file_is_unlinked(self, tmp_path):
        backed = MemoryNode("backed", backing_dir=tmp_path)
        backed.register(4096)
        # The mapping holds the inode; the directory entry must be gone so
        # regions never leak files past the process.
        assert list(tmp_path.iterdir()) == []


class TestSnapshotGuards:
    def test_overlapping_write_materializes_payload(self, node):
        region = node.register(64)
        node.write(region.rkey, region.base_addr, b"old!")
        payloads = [node.read(region.rkey, region.base_addr, 4)]
        node.guard_payloads([(region.rkey, 0, 4)], payloads)
        node.write(region.rkey, region.base_addr, b"new!")
        assert isinstance(payloads[0], bytes)
        assert payloads[0] == b"old!"

    def test_disjoint_write_keeps_view(self, node):
        region = node.register(64)
        payloads = [node.read(region.rkey, region.base_addr, 4)]
        guard = node.guard_payloads([(region.rkey, 0, 4)], payloads)
        node.write(region.rkey, region.base_addr + 32, b"far away")
        assert isinstance(payloads[0], memoryview)
        node.release_guard(guard)
        node.release_guard(guard)  # idempotent

    def test_released_guard_no_longer_copies(self, node):
        region = node.register(64)
        payloads = [node.read(region.rkey, region.base_addr, 4)]
        guard = node.guard_payloads([(region.rkey, 0, 4)], payloads)
        node.release_guard(guard)
        node.write(region.rkey, region.base_addr, b"live")
        assert isinstance(payloads[0], memoryview)
        assert payloads[0] == b"live"


class TestDecodeSharesRegionMemory:
    def test_region_to_decoded_arrays(self, node):
        """The tentpole invariant: region -> READ payload -> decoded
        vector store, one buffer throughout — and searching the decoded
        index derives nothing that would copy it."""
        index = build_index(150, 16, seed=4)
        blob = serialize_cluster(index, cluster_id=3)
        region = node.register(len(blob) + 64)
        node.write(region.rkey, region.base_addr, blob)
        transport = make_transport(node)

        payload = transport.read(region.rkey, region.base_addr, len(blob))
        restored, cid = deserialize_cluster(payload)
        assert cid == 3
        backing = region_bytes(region)
        vectors = restored.graph.vectors
        assert np.shares_memory(vectors, backing)
        assert not vectors.flags.writeable
        np.testing.assert_array_equal(vectors, index.graph.vectors)

        queries = index.graph.vectors[:20]
        assert (restored.search_candidates_batch(queries, 5, 20)
                == index.search_candidates_batch(queries, 5, 20))
        assert np.shares_memory(restored.graph.vectors, backing)
        assert not restored.graph.vectors.flags.writeable

    def test_insert_after_adoption_migrates_storage(self, node):
        """add_node on an adopted read-only store must copy out first."""
        index = build_index(40, 8, seed=6)
        blob = serialize_cluster(index, cluster_id=0)
        region = node.register(len(blob))
        node.write(region.rkey, region.base_addr, blob)
        payload = node.read(region.rkey, region.base_addr, len(blob))
        restored, _ = deserialize_cluster(payload)
        before = np.array(restored.graph.vectors, copy=True)
        restored.add(np.zeros((1, 8), dtype=np.float32), labels=[40])
        assert restored.graph._vectors.flags.writeable
        assert not np.shares_memory(restored.graph.vectors,
                                    region_bytes(region))
        np.testing.assert_array_equal(restored.graph.vectors[:40], before)


class TestFetchAllocationBounded:
    def test_large_read_and_decode_allocate_o1(self, node):
        """Fetching a 32 MiB extent must allocate kilobytes, not another
        32 MiB — the payload and its NumPy decoding are views."""
        length = 32 * 2**20
        region = node.register(length)
        transport = make_transport(node)
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        payload = transport.read(region.rkey, region.base_addr, length)
        decoded = np.frombuffer(payload, dtype=np.float32)
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert decoded.nbytes == length
        assert current - baseline < 64 * 1024
