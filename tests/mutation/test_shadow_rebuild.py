"""Shadow rebuilds: step machine, sealed-tail cutover, non-blocking reads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DHnswClient, Scheme, fsck
from repro.errors import GroupSealedError
from repro.layout.group_layout import OVERFLOW_SEALED, decode_overflow_tail
from repro.mutation.rebuild import ShadowRebuild, writer_token
from tests.serving.helpers import fetch

MUTATION_STAGES = {"classify", "reserve", "snapshot", "build", "publish"}


def fresh_client(deployment, config, scheme=Scheme.DHNSW):
    return DHnswClient(deployment.layout, deployment.meta, config,
                       scheme=scheme, cost_model=deployment.cost_model)


def fill_group(client, probe, count, base_gid=500_000):
    """Insert ``count`` near-duplicates of ``probe`` (same cluster)."""
    for i in range(count):
        client.insert(probe + i * 1e-4, base_gid + i)
    return client.metadata.clusters[client.meta.classify(probe)].group_id


class TestStepMachine:
    def test_steps_run_in_declared_order(self, mutable_deployment,
                                         small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        gid = fill_group(client, small_dataset.queries[0],
                         small_config.overflow_capacity_records)
        rebuild = ShadowRebuild(client.ctx, gid)
        executed = []
        while not rebuild.done:
            executed.append(rebuild.step())
        assert executed == list(ShadowRebuild.STEPS)
        assert not rebuild.yielded

    def test_cutover_bumps_group_and_global_versions_once(
            self, mutable_deployment, small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        gid = fill_group(client, small_dataset.queries[0],
                         small_config.overflow_capacity_records)
        group_before = client.metadata.groups[gid].version
        global_before = client.metadata.version
        assert ShadowRebuild(client.ctx, gid).run()
        assert client.metadata.groups[gid].version == group_before + 1
        assert client.metadata.version == global_before + 1
        # Untouched groups keep their stamps.
        others = [g.version for i, g in enumerate(client.metadata.groups)
                  if i != gid]
        assert all(version == group_before for version in others)

    def test_writer_token_is_deterministic_and_nonzero(self):
        assert writer_token("compute0") == writer_token("compute0")
        assert writer_token("compute0") != writer_token("compute1")
        assert writer_token("") != 0

    def test_lock_released_after_cutover(self, mutable_deployment,
                                         small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        gid = fill_group(client, small_dataset.queries[0],
                         small_config.overflow_capacity_records)
        ShadowRebuild(client.ctx, gid).run()
        report = fsck(mutable_deployment.layout)
        assert report.clean, report.summary()
        assert not any("lock held" in finding.message
                       for finding in report.findings)

    def test_losing_the_acquire_cas_yields(self, mutable_deployment,
                                           small_config, small_dataset):
        leader = fresh_client(mutable_deployment, small_config)
        follower = fresh_client(mutable_deployment, small_config)
        gid = fill_group(leader, small_dataset.queries[0],
                         small_config.overflow_capacity_records)
        held = ShadowRebuild(leader.ctx, gid)
        assert held.step() == "acquire"  # leader now owns the lock word
        cas_before = follower.node.stats.cas_failures
        loser = ShadowRebuild(follower.ctx, gid)
        assert not loser.run()
        assert loser.yielded
        assert follower.node.stats.cas_failures == cas_before + 1
        assert held.run()  # leader finishes unharmed

    def test_rebuild_group_counts_led_and_yielded(self, mutable_deployment,
                                                  small_config,
                                                  small_dataset):
        leader = fresh_client(mutable_deployment, small_config)
        follower = fresh_client(mutable_deployment, small_config)
        gid = fill_group(leader, small_dataset.queries[0],
                         small_config.overflow_capacity_records)
        held = ShadowRebuild(leader.ctx, gid)
        held.step()
        assert follower.mutation.rebuild_group(gid) is False
        assert follower.mutation.stats.rebuilds_yielded == 1
        held.run()
        assert leader.mutation.rebuild_group(gid) is True
        assert leader.mutation.stats.rebuilds_led == 1


class TestSealedTail:
    def test_cutover_seals_old_tail_but_keeps_count_decodable(
            self, mutable_deployment, small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        capacity = small_config.overflow_capacity_records
        gid = fill_group(client, small_dataset.queries[0], capacity)
        old_offset = client.metadata.groups[gid].overflow_offset
        ShadowRebuild(client.ctx, gid).run()
        node = mutable_deployment.layout.memory_node
        raw = int.from_bytes(
            node.read(mutable_deployment.layout.rkey,
                      mutable_deployment.layout.addr(old_offset), 8),
            "little")
        count, sealed = decode_overflow_tail(raw, capacity)
        assert sealed
        assert count == capacity  # retired snapshot stays decodable

    def test_stale_writer_reservation_rolls_back_and_raises(
            self, mutable_deployment, small_config, small_dataset):
        writer = fresh_client(mutable_deployment, small_config)
        stale = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        gid = fill_group(writer, probe,
                         small_config.overflow_capacity_records)
        stale.ctx.refresh_metadata()  # pin the pre-cutover epoch
        ShadowRebuild(writer.ctx, gid).run()
        old_offset = stale.metadata.groups[gid].overflow_offset
        with pytest.raises(GroupSealedError):
            stale.mutation._reserve_run(gid, 1)
        node = mutable_deployment.layout.memory_node
        raw = int.from_bytes(
            node.read(mutable_deployment.layout.rkey,
                      mutable_deployment.layout.addr(old_offset), 8),
            "little")
        # Fully rolled back: sealed sentinel intact, count unchanged.
        count, sealed = decode_overflow_tail(
            raw, small_config.overflow_capacity_records)
        assert sealed
        assert count == small_config.overflow_capacity_records
        assert raw >= OVERFLOW_SEALED
        # The public path refreshes onto the new epoch and succeeds.
        report = stale.insert(probe + 0.02, 600_000)
        assert stale.search(probe + 0.02, 1,
                            ef_search=32).ids[0] == 600_000
        assert report.overflow_slot >= 0

    def test_late_records_migrate_through_the_cutover(
            self, mutable_deployment, small_config, small_dataset):
        """Records reserved after the snapshot (T0) but before the seal
        (T1) land in the relocated overflow, not on the floor."""
        writer = fresh_client(mutable_deployment, small_config)
        late_writer = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        gid = fill_group(writer, probe, 3)
        rebuild = ShadowRebuild(writer.ctx, gid)
        while rebuild.state != "cutover":
            rebuild.step()
        # Rebuild snapshotted T0=3; a concurrent writer appends two more.
        late_writer.insert(probe + 0.01, 610_000)
        late_writer.insert(probe + 0.011, 610_001)
        rebuild.step()
        assert rebuild.done
        assert rebuild.migrated_records == 2
        reader = fresh_client(mutable_deployment, small_config)
        assert reader.search(probe + 0.01, 1, ef_search=64).ids[0] == 610_000
        report = fsck(mutable_deployment.layout)
        assert report.clean, report.summary()


class TestNonBlockingReads:
    def test_readers_serve_old_extents_during_every_step(
            self, mutable_deployment, small_config, small_dataset):
        writer = fresh_client(mutable_deployment, small_config)
        reader = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        gid = fill_group(writer, probe,
                         small_config.overflow_capacity_records)
        expected = reader.search(probe, 5, ef_search=48).ids.tolist()
        rebuild = ShadowRebuild(writer.ctx, gid)
        while not rebuild.done:
            step = rebuild.step()
            result = reader.search(probe, 5, ef_search=48)
            assert result.ids.tolist() == expected, f"diverged after {step}"
        assert reader.metadata.version == writer.metadata.version

    def test_reader_trace_never_contains_mutation_stages(
            self, mutable_deployment, small_config, small_dataset):
        writer = fresh_client(mutable_deployment, small_config)
        reader = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        gid = fill_group(writer, probe,
                         small_config.overflow_capacity_records)
        rebuild = ShadowRebuild(writer.ctx, gid)
        while not rebuild.done:
            rebuild.step()
            batch = reader.search_batch(np.atleast_2d(probe), 5,
                                        ef_search=48)
            stages = {stage.name for stage in batch.trace.report()}
            assert not stages & MUTATION_STAGES

    def test_grace_period_defers_reclaim_until_readers_catch_up(
            self, mutable_deployment, small_config, small_dataset):
        writer = fresh_client(mutable_deployment, small_config)
        reader = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        reader.search(probe, 1, ef_search=16)  # registers the observer
        gid = fill_group(writer, probe,
                         small_config.overflow_capacity_records)
        log = mutable_deployment.layout.retired
        ShadowRebuild(writer.ctx, gid).run()
        # Writer observed the new version at publish, but the reader is
        # still pinned one epoch back: nothing may be reclaimed yet.
        assert log.pending_bytes > 0
        assert not log.reclaimable()
        dead_before = mutable_deployment.layout.allocator.dead_bytes
        reader.search(probe, 1, ef_search=16)  # observes the new epoch
        assert log.pending_bytes == 0
        assert (mutable_deployment.layout.allocator.dead_bytes
                > dead_before)

    def test_close_deregisters_and_unblocks_reclaim(
            self, mutable_deployment, small_config, small_dataset):
        writer = fresh_client(mutable_deployment, small_config)
        straggler = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        straggler.search(probe, 1, ef_search=16)
        gid = fill_group(writer, probe,
                         small_config.overflow_capacity_records)
        log = mutable_deployment.layout.retired
        ShadowRebuild(writer.ctx, gid).run()
        assert log.pending_bytes > 0
        straggler.close()
        assert not [entry for entry in log.entries
                    if entry not in log.reclaimable()]
        # The next writer-side observation reclaims eagerly.
        writer.ctx.refresh_metadata()
        assert log.pending_bytes == 0


class CutoverDuringFetch:
    """Transport proxy that fires a staged rebuild's cutover inside the
    reader's first wave READ — after the plan pinned its epoch, before
    the payload lands — the worst-case interleaving for a torn read."""

    def __init__(self, inner, rebuild: ShadowRebuild) -> None:
        self._inner = inner
        self._rebuild = rebuild
        self.triggered = 0
        self.read_calls = 0

    def _cut_over_once(self) -> None:
        self.read_calls += 1
        if not self.triggered and not self._rebuild.done:
            while not self._rebuild.done:
                self._rebuild.step()
            self.triggered += 1

    def read_batch(self, descriptors, *args, **kwargs):
        self._cut_over_once()
        return self._inner.read_batch(descriptors, *args, **kwargs)

    def read_batch_async(self, descriptors, *args, **kwargs):
        # The served default: a multi-wave plan's READs are issued ahead.
        self._cut_over_once()
        return self._inner.read_batch_async(descriptors, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestEpochConsistency:
    def test_cutover_mid_batch_raises_stale_and_the_engine_retries_once(
            self, mutable_deployment, small_config, small_dataset,
            monkeypatch):
        """A cutover landing between a batch's plan and its fetch must
        surface as ``StaleReadError`` (sealed old tail), and the engine's
        retry must re-pin and answer correctly — never decode the
        retired extents."""
        writer = fresh_client(mutable_deployment, small_config)
        reader = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        capacity = small_config.overflow_capacity_records
        gid = fill_group(writer, probe, capacity)
        inserted = {500_000 + i for i in range(capacity)}

        rebuild = ShadowRebuild(writer.ctx, gid)
        while rebuild.state != "cutover":
            rebuild.step()
        reader.transport = CutoverDuringFetch(reader.transport, rebuild)

        attempts = []
        once = reader.engine._search_batch_once

        def counting(*args, **kwargs):
            attempts.append(1)
            return once(*args, **kwargs)

        monkeypatch.setattr(reader.engine, "_search_batch_once", counting)

        vectors = np.stack([probe + i * 1e-4 for i in range(capacity)])
        batch = reader.search_batch(vectors, 1, ef_search=64)

        assert reader.transport.triggered == 1
        assert len(attempts) == 2  # first attempt torn, one retry
        assert reader.transport.read_calls >= 2  # the retry re-fetched
        assert {r.ids[0] for r in batch.results} == inserted
        assert reader.metadata.version == writer.metadata.version
        report = fsck(mutable_deployment.layout)
        assert report.clean, report.summary()


class TestReaderRetentionAcrossCutovers:
    def test_a_long_lived_reader_answers_like_a_fresh_client(
            self, mutable_deployment, small_config, small_dataset):
        """A reader keeps decoded bases across peers' cutovers (all but
        the rebuilt group's) and across reclaim of the retired extents;
        what it serves must be what a client that has never decoded
        anything serves, evaluation for evaluation."""
        writer = fresh_client(mutable_deployment, small_config)
        reader = fresh_client(mutable_deployment, small_config)
        queries = small_dataset.queries[:16]
        reader.search_batch(queries, 10, ef_search=48)
        decoded = dict(reader.engine.decoder._bases)
        groups = set()
        for round_index, probe in enumerate(small_dataset.queries[16:22]):
            gid = fill_group(writer, probe,
                             small_config.overflow_capacity_records,
                             base_gid=800_000 + 100 * round_index)
            assert ShadowRebuild(writer.ctx, gid).run()
            groups.add(gid)
            got = reader.search_batch(queries, 10, ef_search=48)
            fresh = fresh_client(mutable_deployment, small_config)
            want = fresh.search_batch(queries, 10, ef_search=48)
            fresh.close()
            assert got.ids_list() == want.ids_list()
            assert all(np.array_equal(one.distances, other.distances)
                       for one, other in zip(got.results, want.results))
            assert got.sub_evals == want.sub_evals
        # Retention did happen: clusters of groups no cutover touched are
        # still served from the index decoded before the first one.
        metadata = reader.metadata
        untouched = [cid for cid in decoded
                     if metadata.clusters[cid].group_id not in groups]
        assert untouched
        assert all(reader.engine.decoder._bases[cid].index
                   is decoded[cid].index for cid in untouched)
        assert mutable_deployment.layout.retired.pending_bytes == 0
        report = fsck(mutable_deployment.layout)
        assert report.clean, report.summary()


class TestDramLedgerUnderChurn:
    def test_the_ledger_holds_exactly_what_the_cache_holds(
            self, mutable_deployment, small_config, small_dataset):
        """Whatever drops a cached entry — LRU eviction, a peer's cutover
        seen at ``refresh_metadata``, the client's own cutover, a ``put``
        over a resident entry, ``invalidate_all`` — its bytes leave the
        cache's ledger: beyond the meta-HNSW the client holds exactly
        what its residents hold, at every step, and nothing streamed
        outlives its batch."""
        writer = fresh_client(mutable_deployment, small_config)
        # Six resident clusters: a probe's three stay cached to be dropped.
        reader = fresh_client(mutable_deployment,
                              small_config.replace(cache_fraction=0.5))
        meta_bytes = reader.dram_used_bytes
        queries = small_dataset.queries[:12]
        capacity = small_config.overflow_capacity_records

        def check(step):
            held = reader.dram_used_bytes - meta_bytes
            resident = sum(
                entry.nbytes for entry in map(
                    reader.cache.peek, range(reader.metadata.num_clusters))
                if entry is not None)
            assert held == reader.cache.cached_bytes == resident, step
            return held

        check("fresh")
        for round_index, probe in enumerate(small_dataset.queries[12:16]):
            reader.search_batch(queries, 10)
            assert check("batch") > 0
            # The probe's cluster resident, then a peer overflows its
            # group: the reader's next refresh invalidates both members.
            reader.search_batch(probe[None, :], 10)
            check("probe")
            fill_group(writer, probe, capacity + 1,
                       base_gid=600_000 + 100 * round_index)
            invalidations = reader.cache.invalidations
            reader.search_batch(probe[None, :], 10)
            assert reader.cache.invalidations > invalidations
            check("peer cutover")
            # The reader's own rebuild invalidates at its own cutover.
            fill_group(reader, probe, capacity + 1,
                       base_gid=700_000 + 100 * round_index)
            check("own cutover")
            # A fetch of a resident cluster replaces its entry.
            cid = reader.meta.classify(probe)
            reader.search_batch(probe[None, :], 10)
            assert cid in reader.cache
            previous = reader.cache.peek(cid)
            fetch(reader, [cid])
            assert reader.cache.peek(cid) is not previous
            check("replaced")
        assert writer.mutation.stats.rebuilds_led >= 4
        assert reader.mutation.stats.rebuilds_led >= 1
        reader.cache.invalidate_all()
        assert check("invalidate_all") == 0
        writer.close()
        reader.close()
