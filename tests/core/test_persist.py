"""Persistence: save/load round-trips a deployment byte-for-byte."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import DHnswClient, fsck
from repro.core.config import META_PARAMS, SUB_PARAMS
from repro.errors import ConfigError, SerializationError
from repro.persist import load_deployment, save_deployment


@pytest.fixture()
def saved(tmp_path, mutable_deployment, small_config):
    save_deployment(tmp_path / "dep", mutable_deployment.layout,
                    mutable_deployment.meta, small_config)
    return tmp_path / "dep", mutable_deployment


class TestRoundtrip:
    def test_files_written(self, saved):
        path, _ = saved
        assert (path / "manifest.json").exists()
        assert (path / "region.bin").exists()
        assert (path / "meta.bin").exists()

    def test_restored_answers_identical(self, saved, small_config,
                                        small_dataset):
        path, original = saved
        meta, layout, config = load_deployment(path)
        original_client = DHnswClient(original.layout, original.meta,
                                      small_config,
                                      cost_model=original.cost_model)
        restored_client = DHnswClient(layout, meta, config)
        for query in small_dataset.queries[:10]:
            want = original_client.search(query, 5, ef_search=32)
            got = restored_client.search(query, 5, ef_search=32)
            np.testing.assert_array_equal(got.ids, want.ids)

    def test_restored_config_matches(self, saved, small_config):
        path, _ = saved
        _, _, config = load_deployment(path)
        assert config == small_config

    def test_restored_metadata_matches(self, saved):
        path, original = saved
        _, layout, _ = load_deployment(path)
        assert layout.metadata.clusters == original.layout.metadata.clusters
        assert layout.metadata.version == original.layout.metadata.version

    def test_restored_allocator_state(self, saved):
        path, original = saved
        _, layout, _ = load_deployment(path)
        assert layout.allocator.tail == original.layout.allocator.tail
        assert (layout.allocator.dead_bytes
                == original.layout.allocator.dead_bytes)


class TestGracePeriodAcrossRestart:
    def test_pending_extents_come_back_free(self, tmp_path,
                                            mutable_deployment,
                                            small_config, small_dataset):
        """Extents a reader still pinned when the deployment was saved
        are free after the restore (no reader survives it), not orphans
        that nothing names."""
        layout = mutable_deployment.layout
        reader = DHnswClient(layout, mutable_deployment.meta, small_config,
                             cost_model=mutable_deployment.cost_model)
        probe = small_dataset.queries[0]
        reader.search(probe, 1, ef_search=16)  # pins version 1
        writer = mutable_deployment.client(0)
        for i in range(small_config.overflow_capacity_records + 1):
            writer.insert(probe + i * 1e-4, 750_000 + i)
        pending = layout.retired.pending_bytes
        assert pending > 0
        assert not [f for f in fsck(layout).findings
                    if "orphan" in f.message]
        free = layout.allocator.dead_bytes
        save_deployment(tmp_path / "dep", layout, mutable_deployment.meta,
                        small_config)
        _, restored, _ = load_deployment(tmp_path / "dep")
        assert not [f for f in fsck(restored).findings
                    if "orphan" in f.message]
        assert restored.allocator.dead_bytes == free + pending


class TestMutationAfterRestore:
    def test_insert_and_rebuild_keep_working(self, saved, small_dataset,
                                             small_config):
        path, _ = saved
        meta, layout, config = load_deployment(path)
        client = DHnswClient(layout, meta, config)
        probe = small_dataset.queries[0]
        for i in range(config.overflow_capacity_records + 1):
            client.insert(probe + i * 1e-4, 700_000 + i)
        result = client.search(probe, 1, ef_search=48)
        assert result.ids[0] == 700_000

    def test_save_after_inserts_preserves_overflow(self, tmp_path,
                                                   mutable_deployment,
                                                   small_config,
                                                   small_dataset):
        writer = mutable_deployment.client(0)
        probe = small_dataset.queries[1]
        writer.insert(probe, 800_000)
        save_deployment(tmp_path / "dep2", mutable_deployment.layout,
                        mutable_deployment.meta, small_config)
        meta, layout, config = load_deployment(tmp_path / "dep2")
        reader = DHnswClient(layout, meta, config)
        assert reader.search(probe, 1, ef_search=32).ids[0] == 800_000


class TestErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SerializationError, match="manifest"):
            load_deployment(tmp_path)

    def test_unsupported_format_version(self, saved):
        path, _ = saved
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SerializationError, match="unsupported"):
            load_deployment(path)

    def test_format_1_deployment_refused_at_load(self, saved):
        """Format 1 directories hold DHN1 blobs: ``load_deployment``
        refuses them itself instead of leaving it to the first fetch."""
        path, _ = saved
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format_version"] == 2
        manifest["format_version"] = 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SerializationError, match="format 1 .*DHN2"):
            load_deployment(path)

    #: The config keys a manifest written before the knobs were retired
    #: carries on top of today's, at the only values ever in use (the
    #: cold tier's at their defaults, with the tier off).
    RETIRED = {"mutation_retry_limit": 8, "pq_bits": 8,
               "tier_ewma_halflife_us": 50_000.0, "tier_hysteresis": 2.0,
               "vamana_degree": 16, "batch_size": 64,
               "rerank_depth": 48, "pq_subspaces": 8}

    def rewrite_config(self, path, **changes):
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["config"].update(changes)
        (path / "manifest.json").write_text(json.dumps(manifest))

    def test_older_manifest_loads_without_its_retired_keys(
            self, saved, small_config):
        path, _ = saved
        self.rewrite_config(path, cold_tier="off", **self.RETIRED)
        _, _, config = load_deployment(path)
        assert config == small_config

    def test_cold_tier_manifest_refused_at_load(self, saved):
        """A deployment built with the retired PQ cold tier on holds cold
        extents and a codebook nothing reads: ``load_deployment`` refuses
        it, naming the key and its value."""
        path, _ = saved
        self.rewrite_config(path, cold_tier="pq", **self.RETIRED)
        with pytest.raises(ConfigError, match="cold_tier='pq'"):
            load_deployment(path)

    @pytest.mark.parametrize("adaptive_nprobe", [False, True])
    def test_manifest_naming_a_router_loads(self, saved, small_config,
                                            adaptive_nprobe):
        """Manifests from when a switch picked the router carry both keys;
        whichever router they name, the deployment routes by the one rule."""
        path, _ = saved
        self.rewrite_config(path, adaptive_nprobe=adaptive_nprobe,
                            adaptive_alpha=1.35)
        _, _, config = load_deployment(path)
        assert config == small_config

    @pytest.mark.parametrize("search_workers", [1, 4])
    def test_manifest_sizing_the_search_pool_loads(self, saved, small_config,
                                                   search_workers):
        """Manifests from before the search worker pool was retired carry
        its size; it never changed an answer, so any value loads."""
        path, _ = saved
        self.rewrite_config(path, search_workers=search_workers)
        _, _, config = load_deployment(path)
        assert config == small_config

    def test_older_vamana_manifest_is_a_config_error(self, saved):
        path, _ = saved
        self.rewrite_config(path, cold_tier="vamana", **self.RETIRED)
        with pytest.raises(ConfigError, match="cold_tier"):
            load_deployment(path)

    def test_manifest_holds_no_hnsw_parameters(self, saved):
        path, _ = saved
        config = json.loads((path / "manifest.json").read_text())["config"]
        assert not {"meta_params", "sub_params"} & set(config)

    def test_older_manifest_params_must_be_the_constants(self, saved,
                                                         small_config):
        """Older manifests spelled out both parameter sets: at the
        constants' values they load, any other value is refused — a
        metric other than L2 included, and the error names the key."""
        path, _ = saved
        legacy = {
            "sub_params": {"m": SUB_PARAMS.m, "m0": None,
                           "ef_construction": SUB_PARAMS.ef_construction,
                           "metric": "l2", "level_mult": None,
                           "max_level": None, "seed": 0,
                           "extend_candidates": False,
                           "keep_pruned_connections": True}}
        legacy["meta_params"] = {
            **legacy["sub_params"], "m": META_PARAMS.m,
            "ef_construction": META_PARAMS.ef_construction, "max_level": 2}
        self.rewrite_config(path, **legacy)
        _, _, config = load_deployment(path)
        assert config == small_config
        for key, params in legacy.items():
            for name, value in (("m", 32), ("metric", "ip"),
                                ("metric", "cosine")):
                self.rewrite_config(path, **{key: {**params, name: value}})
                with pytest.raises(SerializationError,
                                   match=rf"{key} .*'{name}': {value!r}"):
                    load_deployment(path)
            self.rewrite_config(path, **legacy)

    def test_unknown_config_key_is_named(self, saved):
        path, _ = saved
        self.rewrite_config(path, prefetch_depth=3)
        with pytest.raises(SerializationError, match="prefetch_depth"):
            load_deployment(path)

    def test_truncated_region_image(self, saved):
        path, _ = saved
        image = (path / "region.bin").read_bytes()
        (path / "region.bin").write_bytes(image[:100])
        with pytest.raises(SerializationError, match="region image"):
            load_deployment(path)

    def test_restore_onto_existing_memory_node(self, saved):
        from repro.rdma import MemoryNode
        path, _ = saved
        node = MemoryNode("shared")
        node.register(64)  # pre-existing unrelated region
        meta, layout, _ = load_deployment(path, memory_node=node)
        assert layout.memory_node is node
        assert layout.metadata.num_clusters == 12
