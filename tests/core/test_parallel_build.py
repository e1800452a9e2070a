"""Parallel construction: BuildPool semantics, byte-identical layouts,
rebuild-under-parallel and streaming memory behaviour."""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.cluster import Deployment
from repro.cluster.sharding import ShardedDeployment
from repro.core import DHnswConfig
from repro.core.config import META_PARAMS, SUB_PARAMS
from repro.core.build_pool import BuildPool
from repro.core.engine import _ClusterBlobSource
from repro.core.meta_index import MetaHnsw, sample_representatives
from repro.core.partitions import assign_partitions, build_sub_hnsws
from repro.errors import ConfigError
import repro.hnsw.build as build_module
from repro.hnsw.build import PairTable
from repro.hnsw.index import HnswIndex
import repro.hnsw.parallel_build as parallel_build
from repro.hnsw.parallel_build import ClusterRebuildTask, rebuild_cluster_blob
from repro.hnsw.params import HnswParams
from repro.layout.group_layout import plan_groups
from repro.layout.serializer import (OverflowRecord, deserialize_cluster,
                                     serialize_cluster)


def square_task(value: int) -> int:
    """Module-level so the process pool can pickle it by reference."""
    return value * value


def region_digest(deployment: Deployment) -> str:
    """SHA-256 of the entire remote region (metadata + groups)."""
    layout = deployment.layout
    payload = layout.memory_node.read(layout.rkey, layout.region.base_addr,
                                      layout.region.length)
    return hashlib.sha256(payload).hexdigest()


class TestBuildPool:
    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            BuildPool(-1)

    def test_in_process_map_is_lazy(self):
        consumed = []

        def record(value):
            consumed.append(value)
            return value + 1

        with BuildPool(0) as pool:
            results = pool.map(record, [1, 2, 3])
            assert consumed == []  # nothing ran yet
            assert next(iter(results)) == 2
            assert consumed == [1]

    def test_pool_map_preserves_order(self):
        with BuildPool(2) as pool:
            assert list(pool.map(square_task, [3, 1, 4, 1, 5])) == \
                [9, 1, 16, 1, 25]


class TestByteIdenticalLayouts:
    """The determinism contract: build_workers never changes the bytes."""

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(31)
        return rng.standard_normal((900, 16)).astype(np.float32)

    def test_worker_counts_agree(self, corpus):
        config = DHnswConfig(num_representatives=10, nprobe=2,
                             overflow_capacity_records=8, seed=3)
        digests = {}
        reports = {}
        for workers in (0, 1, 4):
            deployment = Deployment(
                corpus, config.replace(build_workers=workers))
            digests[workers] = region_digest(deployment)
            reports[workers] = deployment.build_report
        assert digests[0] == digests[1] == digests[4]
        base = reports[0]
        for workers in (1, 4):
            report = reports[workers]
            assert report.total_blob_bytes == base.total_blob_bytes
            assert report.num_partitions == base.num_partitions
            assert report.num_groups == base.num_groups
            np.testing.assert_array_equal(report.partition_sizes,
                                          base.partition_sizes)

    def test_sharded_deployment_passthrough(self, corpus):
        config = DHnswConfig(num_representatives=6, nprobe=2, seed=3)
        plain = ShardedDeployment(corpus, config, num_shards=2)
        parallel = ShardedDeployment(corpus, config, num_shards=2,
                                     build_workers=2)
        assert parallel.config.build_workers == 2
        for left, right in zip(plain.deployments, parallel.deployments):
            assert region_digest(left) == region_digest(right)


class TestRebuildUnderParallel:
    """Overflow-exhaustion rebuilds stay byte-identical when the member
    clusters are rebuilt on a process pool."""

    def _exhaust(self, deployment, config, probe):
        from repro.core import DHnswClient
        client = DHnswClient(deployment.layout, deployment.meta, config,
                             cost_model=deployment.cost_model)
        reports = [client.insert(probe + i * 1e-4, 100_000 + i)
                   for i in range(config.overflow_capacity_records + 1)]
        return client, reports

    def test_parallel_rebuild_matches_sequential(self, small_dataset,
                                                 small_config):
        probe = small_dataset.queries[2]
        outcomes = {}
        for workers in (0, 2):
            config = small_config.replace(build_workers=workers)
            deployment = Deployment(small_dataset.vectors, config)
            client, reports = self._exhaust(deployment, config, probe)
            assert reports[-1].triggered_rebuild
            result = client.search(probe, 5, ef_search=48)
            outcomes[workers] = (region_digest(deployment),
                                 result.ids.tolist(),
                                 result.distances.tolist(),
                                 client.metadata.version)
        assert outcomes[0] == outcomes[2]


class TestRebuildTask:
    """``rebuild_cluster_blob`` edits the deserialized graph: base nodes
    with a later record are unlinked, live records appended, and nothing
    is ever re-inserted from scratch."""

    CLUSTER = 5
    PARAMS = HnswParams(m=6, ef_construction=32, seed=9)

    @pytest.fixture(scope="class")
    def base(self):
        """60 base vectors labelled 100..159 and their blob."""
        rng = np.random.default_rng(41)
        vectors = rng.standard_normal((60, 12)).astype(np.float32)
        index = HnswIndex(12, self.PARAMS)
        index.add(vectors, labels=range(100, 160))
        return vectors, serialize_cluster(index, self.CLUSTER)

    def task(self, blob, *records) -> ClusterRebuildTask:
        return ClusterRebuildTask(
            cluster_id=self.CLUSTER, blob=blob, params=self.PARAMS,
            records=[OverflowRecord(global_id, self.CLUSTER,
                                    np.asarray(vector, dtype=np.float32),
                                    tombstone)
                     for global_id, vector, tombstone in records])

    def rebuilt(self, blob, *records) -> HnswIndex:
        index, cluster_id = deserialize_cluster(
            rebuild_cluster_blob(self.task(blob, *records)), self.PARAMS)
        assert cluster_id == self.CLUSTER
        index.graph.check_invariants()
        return index

    def test_no_records_returns_the_blob(self, base):
        _, blob = base
        assert rebuild_cluster_blob(self.task(blob)) == blob

    def test_tombstone_of_a_base_id(self, base):
        vectors, blob = base
        index = self.rebuilt(blob, (117, vectors[17], True))
        # Everyone else keeps their place.
        assert index.labels == [label for label in range(100, 160)
                                if label != 117]
        assert np.array_equal(index.graph.vectors,
                              np.delete(vectors, 17, axis=0))

    def test_supersede_carries_the_new_vector(self, base):
        vectors, blob = base
        moved = vectors[17] + 0.25
        index = self.rebuilt(blob, (117, moved, False))
        assert len(index) == 60 and index.labels.count(117) == 1
        assert index.labels[-1] == 117  # unlinked, then appended
        assert np.array_equal(index.graph.vectors[-1], moved)
        labels, distances = index.search(moved, 1)
        assert (labels[0], distances[0]) == (117, 0.0)

    def test_tombstone_then_reinsert_in_one_overflow_area(self, base):
        vectors, blob = base
        moved = vectors[17] - 0.5
        index = self.rebuilt(blob, (117, vectors[17], True),
                             (117, moved, False))
        assert len(index) == 60 and index.labels.count(117) == 1
        assert np.array_equal(index.graph.vectors[index.labels.index(117)],
                              moved)
        # The other way round the id is gone, and the record with it.
        index = self.rebuilt(blob, (500, moved, False), (500, moved, True),
                             (117, moved, False), (117, moved, True))
        assert index.labels == [label for label in range(100, 160)
                                if label != 117]

    def test_every_base_id_tombstoned(self, base):
        vectors, blob = base
        gone = [(100 + row, vectors[row], True) for row in range(60)]
        assert len(self.rebuilt(blob, *gone)) == 0
        index = self.rebuilt(blob, *gone, (900, vectors[3], False),
                             (901, vectors[4], False))
        assert index.labels == [900, 901]
        assert index.search(vectors[4], 1)[0][0] == 901

    def delete_carrying_tasks(self, base) -> list[ClusterRebuildTask]:
        vectors, blob = base
        return [self.task(blob, (117, vectors[17], True),
                          (700, vectors[17] + 0.1, False)),
                self.task(blob, (131, vectors[31] * 2, False),
                          (102, vectors[2], True), (140, vectors[40], True)),
                self.task(blob, *((100 + row, vectors[row], True)
                                  for row in range(0, 60, 2)))]

    def test_worker_counts_and_runs_agree_byte_for_byte(self, base):
        tasks = self.delete_carrying_tasks(base)
        with BuildPool(0) as pool:
            inline = list(pool.map(rebuild_cluster_blob, tasks))
        with BuildPool(2) as pool:
            pooled = list(pool.map(rebuild_cluster_blob, tasks))
        assert inline == pooled
        assert inline == [rebuild_cluster_blob(task) for task in tasks]
        assert len(set(inline)) == len(tasks)

    def test_no_index_is_built_from_scratch(self, base, monkeypatch):
        """The one ``HnswIndex`` of a rebuild is the deserializer's."""
        def refuse(*args, **kwargs):
            raise AssertionError("rebuild constructed a fresh HnswIndex")

        constructed = []
        construct = HnswIndex.__init__
        monkeypatch.setattr(parallel_build, "HnswIndex", refuse)
        monkeypatch.setattr(
            HnswIndex, "__init__",
            lambda self, *args, **kwargs: (constructed.append(self),
                                           construct(self, *args,
                                                     **kwargs))[1])
        for task in self.delete_carrying_tasks(base):
            constructed.clear()
            rebuild_cluster_blob(task)
            assert len(constructed) == 1


class TestStreamingBlobConsumption:
    """plan_groups + the write loop never hold every blob at once."""

    def _source_parts(self, count=4000, dim=32):
        rng = np.random.default_rng(17)
        vectors = rng.standard_normal((count, dim)).astype(np.float32)
        config = DHnswConfig(num_representatives=12, seed=5)
        reps = sample_representatives(count, 12,
                                      np.random.default_rng(config.seed))
        meta = MetaHnsw(vectors[reps], META_PARAMS)
        partitioning = assign_partitions(vectors, meta)
        return vectors, partitioning, config

    def _consume(self, source, dim, config, retain: bool) -> int:
        """Plan then drain the source, returning the traced peak."""
        tracemalloc.start()
        tracemalloc.reset_peak()
        plans, _, _ = plan_groups(source.sizes(), dim,
                                  config.overflow_capacity_records, 0)
        kept = []
        for _, blob in source.blobs():
            if retain:
                kept.append(blob)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert plans
        return peak

    def test_peak_below_materializing_all_blobs(self):
        vectors, partitioning, config = self._source_parts()
        dim = vectors.shape[1]
        streaming = _ClusterBlobSource(vectors, partitioning, None, 0)
        streaming_peak = self._consume(streaming, dim, config, retain=False)
        total = streaming.total_blob_bytes
        assert total > 0

        materialized = _ClusterBlobSource(vectors, partitioning, None, 0)
        retained_peak = self._consume(materialized, dim, config, retain=True)

        # Streaming holds at most a couple of in-flight blobs (the
        # serializer's working buffer plus the yielded copy); retaining
        # every blob — what the old two-pass planner forced — must pay
        # for the whole layout on top of that.
        assert retained_peak >= total
        assert streaming_peak < retained_peak - 0.5 * total


class TestPairTableLifetime:
    """The pair table is one batch's working memory, never an index's: a
    table left on each built index is 16 MiB x clusters at 2048-node
    clusters."""

    def _traced(self, build) -> tuple[object, int, int]:
        """``build()``'s result, the bytes it retains and its peak."""
        build()  # one-off allocations (import-time caches) happen here
        gc.collect()
        tracemalloc.start()
        result = build()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return result, retained, peak

    def _no_tables(self, monkeypatch) -> None:
        monkeypatch.setattr(PairTable, "for_batch",
                            classmethod(lambda cls, *args: None))

    def test_built_indexes_retain_no_table(self, monkeypatch):
        rng = np.random.default_rng(23)
        vectors = rng.standard_normal((800, 8)).astype(np.float32)
        config = DHnswConfig(num_representatives=40, seed=5)
        reps = sample_representatives(800, 40,
                                      np.random.default_rng(config.seed))
        partitioning = assign_partitions(
            vectors, MetaHnsw(vectors[reps], META_PARAMS))

        def build():
            return build_sub_hnsws(vectors, partitioning, SUB_PARAMS)

        indexes, retained, _ = self._traced(build)
        assert len(indexes) == 40
        assert not any(isinstance(obj, PairTable)
                       for obj in gc.get_objects())
        self._no_tables(monkeypatch)
        _, baseline, _ = self._traced(build)
        assert abs(retained - baseline) <= 0.01 * baseline

    def test_peak_is_the_table_and_the_table_is_bounded(self, monkeypatch):
        params = HnswParams(m=4, ef_construction=12, seed=1)
        # At the real bound the table is 16 MiB whatever the batch asks.
        empty = HnswIndex(32, params)
        biggest = PairTable.for_batch(empty.graph, empty.kernel, 10 ** 6)
        assert biggest._rows.nbytes == 16 << 20
        del biggest
        # Traced at a quarter of the bound: tracing the two million row
        # floats of a 2048-node build takes ten seconds.
        monkeypatch.setattr(build_module, "TABLE_NODES_MAX", 512)
        rng = np.random.default_rng(29)
        vectors = rng.standard_normal((512, 32)).astype(np.float32)

        def build():
            index = HnswIndex(32, params)
            index.add(vectors)
            return index

        _, _, peak = self._traced(build)
        self._no_tables(monkeypatch)
        _, _, baseline = self._traced(build)
        table = 512 * 512 * 4
        assert table // 2 < peak - baseline <= table + vectors.nbytes
