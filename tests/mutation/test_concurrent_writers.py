"""Multi-writer ingest: slot uniqueness, batch splitting, supersession,
and interleaving-determinism of the final live-record set."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Deployment
from repro.core import DHnswClient, DHnswConfig, Scheme, fsck
from repro.datasets.synthetic import make_clustered
from repro.mutation.rebuild import ShadowRebuild


def fresh_client(deployment, config, scheme=Scheme.DHNSW):
    return DHnswClient(deployment.layout, deployment.meta, config,
                       scheme=scheme, cost_model=deployment.cost_model)


class TestConcurrentSlotReservation:
    def test_interleaved_writers_never_share_a_slot(
            self, mutable_deployment, small_config, small_dataset):
        writers = [fresh_client(mutable_deployment, small_config)
                   for _ in range(3)]
        probe = small_dataset.queries[0]
        reports = []
        for i in range(6):
            writer = writers[i % len(writers)]
            reports.append(writer.insert(probe + i * 1e-4, 700_000 + i))
        slots = [(r.cluster_id, r.overflow_slot) for r in reports]
        assert len(set(slots)) == len(slots)
        report = fsck(mutable_deployment.layout)
        assert report.clean, report.summary()

    def test_every_writer_sees_every_record_after_rebuild(
            self, mutable_deployment, small_config, small_dataset):
        writers = [fresh_client(mutable_deployment, small_config)
                   for _ in range(2)]
        probe = small_dataset.queries[1]
        total = small_config.overflow_capacity_records + 4
        inserted = []
        for i in range(total):
            writers[i % 2].insert(probe + i * 1e-4, 710_000 + i)
            inserted.append(710_000 + i)
        for writer in writers:
            batch = writer.search_batch(
                np.stack([probe + i * 1e-4 for i in range(total)]),
                1, ef_search=64)
            assert {r.ids[0] for r in batch.results} == set(inserted)


class TestBatchSplitting:
    def test_batch_larger_than_overflow_capacity_splits(
            self, mutable_deployment, small_config, small_dataset):
        """Regression: an ``insert_batch`` bigger than an empty group's
        whole overflow capacity must split across reservations and
        rebuilds instead of raising ``OverflowFullError``."""
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        capacity = small_config.overflow_capacity_records
        count = 2 * capacity + 3  # > capacity even after one rebuild
        vectors = np.stack([probe + i * 1e-4 for i in range(count)])
        ids = [720_000 + i for i in range(count)]
        reports = client.insert_batch(vectors, ids)
        assert [r.global_id for r in reports] == ids
        assert client.mutation.stats.rebuilds_led >= 2
        assert client.mutation.stats.batch_chunks >= 2
        batch = client.search_batch(vectors, 1, ef_search=64)
        assert {r.ids[0] for r in batch.results} == set(ids)
        report = fsck(mutable_deployment.layout)
        assert report.clean, report.summary()

    def test_split_batch_matches_single_inserts(self, small_dataset,
                                                small_config):
        """The split path lands the same live-record set as one-at-a-time
        inserts of the same rows."""
        probe = small_dataset.queries[2]
        capacity = small_config.overflow_capacity_records
        count = capacity + 5
        vectors = np.stack([probe + i * 1e-4 for i in range(count)])
        ids = [730_000 + i for i in range(count)]

        batched = Deployment(small_dataset.vectors, small_config)
        client_a = fresh_client(batched, small_config)
        client_a.insert_batch(vectors, ids)

        serial = Deployment(small_dataset.vectors, small_config)
        client_b = fresh_client(serial, small_config)
        for vector, gid in zip(vectors, ids):
            client_b.insert(vector, gid)

        result_a = client_a.search_batch(vectors, 1, ef_search=64)
        result_b = client_b.search_batch(vectors, 1, ef_search=64)
        assert ([r.ids[0] for r in result_a.results]
                == [r.ids[0] for r in result_b.results])


class TestSupersession:
    def test_delete_then_reinsert_survives_rebuild_with_new_vector(
            self, mutable_deployment, small_config, small_dataset):
        """Tombstone a global id, re-insert it with a different vector,
        force the group rebuild: exactly the new vector survives."""
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        old_vector = probe + 0.02
        new_vector = probe + 0.04
        client.insert(old_vector, 740_000)
        client.delete(old_vector, 740_000)
        client.insert(new_vector, 740_000)
        # Fill the remaining slots to force the rebuild + relocation.
        while True:
            report = client.insert(probe + np.random.default_rng(
                client.mutation.stats.inserts).normal(0, 1e-4, probe.shape)
                .astype(np.float32), 741_000 + client.mutation.stats.inserts)
            if report.triggered_rebuild:
                break
        hit = client.search(new_vector, 1, ef_search=64)
        assert hit.ids[0] == 740_000
        assert hit.distances[0] == pytest.approx(0.0, abs=1e-5)
        # The superseded vector is gone: searching for it finds 740_000
        # only at the *new* location's distance, not at zero.
        old_hit = client.search(old_vector, 1, ef_search=64)
        if old_hit.ids[0] == 740_000:
            assert old_hit.distances[0] > 1e-5
        # Exactly one copy of the id remains anywhere in the layout.
        report = fsck(mutable_deployment.layout)
        assert report.clean, report.summary()


class TestCutoverAdoption:
    def test_cutover_drops_a_group_a_peer_rebuilt_meanwhile(
            self, mutable_deployment, small_config, small_dataset):
        """A cutover publishes against the re-read remote block, so the
        epoch it adopts can carry a peer's rebuild of another group.  It
        must invalidate that group's cached members as a refresh would,
        or the next refresh sees no version change and keeps serving
        them from an extent already back in the allocator."""
        reader = fresh_client(mutable_deployment,
                              small_config.replace(cache_fraction=1.0))
        peer = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        for i in range(5):
            assert peer.insert(probe + (i + 1) * 1e-3,
                               750_000 + i).cluster_id == 2
        reader.search_batch(probe[None, :], 10, ef_search=64)
        assert 2 in reader.cache
        group = reader.metadata.clusters[2].group_id
        assert group != 0

        rebuild = ShadowRebuild(reader, 0)
        while rebuild.state != "cutover":
            rebuild.step()
        assert peer.mutation.rebuild_group(group)
        target = (probe + 0.5e-3).astype(np.float32)
        assert peer.insert(target, 999_999).cluster_id == 2
        rebuild.step()
        assert rebuild.done

        assert 2 not in reader.cache
        observers = (reader, peer, fresh_client(mutable_deployment,
                                                small_config))
        for client in observers:
            assert client.search(target, 1, ef_search=64).ids[0] == 999_999
        report = fsck(mutable_deployment.layout)
        assert report.clean, report.summary()


# -- interleaving determinism (hypothesis) ------------------------------

def tiny_deployment() -> tuple[Deployment, DHnswConfig, np.ndarray]:
    """A minimal deployment cheap enough to rebuild per example."""
    rng = np.random.default_rng(11)
    corpus = make_clustered(160, 8, num_clusters=4, cluster_std=0.05,
                            rng=rng)
    config = DHnswConfig(num_representatives=4, nprobe=2, ef_meta=8,
                         cache_fraction=0.3,
                         overflow_capacity_records=4, seed=11,
                         build_workers=1)
    return Deployment(corpus, config), config, corpus


def writer_program(writer_index: int, corpus: np.ndarray
                   ) -> list[tuple[str, int, np.ndarray]]:
    """A fixed per-writer op sequence over a private global-id range.

    Writers never touch each other's ids, so the final live set is a
    pure function of each writer's program order — which any
    interleaving preserves.
    """
    base = 800_000 + 1_000 * writer_index
    anchor = corpus[writer_index * 3]

    def vec(i: int) -> np.ndarray:
        # Offset from the anchor so no program vector ties a corpus
        # vector at distance zero (liveness is probed by exact match).
        return (anchor + (i + 1) * 2e-3).astype(np.float32)

    ops = [("insert", base + i, vec(i)) for i in range(6)]
    ops.append(("delete", base + 1, vec(1)))
    ops.append(("delete", base + 4, vec(4)))
    ops.append(("insert", base + 1, (anchor + 0.02).astype(np.float32)))
    return ops


def expected_live_ids(programs: list[list[tuple]]) -> set[int]:
    live: set[int] = set()
    for program in programs:
        for op, gid, _vector in program:
            if op == "insert":
                live.add(gid)
            else:
                live.discard(gid)
    return live


@settings(max_examples=6, deadline=None)
@given(interleaving=st.lists(st.integers(min_value=0, max_value=1),
                             min_size=0, max_size=30))
def test_any_interleaving_yields_the_same_live_set(interleaving):
    """Concurrent-writer determinism: every op-granularity interleaving
    of the seeded two-writer schedule lands the same final live-record
    set and fsck-clean metadata."""
    deployment, config, corpus = tiny_deployment()
    writers = [fresh_client(deployment, config) for _ in range(2)]
    programs = [writer_program(i, corpus) for i in range(2)]
    cursors = [0, 0]
    schedule = list(interleaving)
    while any(cursor < len(program)
              for cursor, program in zip(cursors, programs)):
        choice = schedule.pop(0) if schedule else 0
        if cursors[choice] >= len(programs[choice]):
            choice = 1 - choice
        op, gid, vector = programs[choice][cursors[choice]]
        if op == "insert":
            writers[choice].insert(vector, gid)
        else:
            writers[choice].delete(vector, gid)
        cursors[choice] += 1

    report = fsck(deployment.layout)
    assert report.clean, report.summary()

    expected = expected_live_ids(programs)
    reader = fresh_client(deployment, config)
    found = set()
    for program in programs:
        for _, gid, vector in program:
            hit = reader.search(vector, 1, ef_search=64)
            if hit.distances[0] < 1e-6:
                found.add(int(hit.ids[0]))
    assert found == expected
    for writer in writers:
        writer.close()
    reader.close()
