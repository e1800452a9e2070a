"""Distance-gap routing: of the ``nprobe`` closest representatives a query
keeps those within ``ROUTE_ALPHA`` of the closest (extension beyond the
paper, which probes all ``b``)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import DHnswClient, DHnswConfig, Scheme, meta_index
from repro.datasets import exact_knn
from repro.errors import ConfigError
from repro.metrics import recall_at_k


class TestRouteAdaptive:
    def test_easy_query_probes_fewer(self, built_deployment):
        meta = built_deployment.meta
        # A query sitting exactly on a representative is unambiguous.
        representative = meta.index.graph.vector(0)
        [kept] = meta.route_batch(representative, 4, ef=16)
        assert len(kept) < 4
        assert kept[0] == 0

    def test_never_below_min_probe(self, built_deployment, small_dataset,
                                   monkeypatch):
        """Even the tightest ratio keeps the closest partition."""
        monkeypatch.setattr(meta_index, "ROUTE_ALPHA", 1.0)
        routed = built_deployment.meta.route_batch(small_dataset.queries, 4,
                                                   ef=16)
        assert all(len(kept) >= 1 for kept in routed)

    def test_never_above_max_probe(self, built_deployment, small_dataset,
                                   monkeypatch):
        monkeypatch.setattr(meta_index, "ROUTE_ALPHA", 100.0)
        routed = built_deployment.meta.route_batch(
            small_dataset.queries[:10], 3, ef=16)
        assert all(len(kept) <= 3 for kept in routed)

    def test_huge_alpha_equals_full_route(self, built_deployment,
                                          small_dataset, monkeypatch):
        """An infinite ratio is the paper's fixed width; the shipped ratio
        keeps a prefix of it."""
        meta = built_deployment.meta
        queries = small_dataset.queries[:10]
        shipped = meta.route_batch(queries, 4, ef=16)
        monkeypatch.setattr(meta_index, "ROUTE_ALPHA", math.inf)
        full = meta.route_batch(queries, 4, ef=16)
        for row, query in enumerate(queries):
            labels, _ = meta.index.search(query, 4, ef=16)
            assert full[row] == labels.tolist()
            assert shipped[row] == full[row][:len(shipped[row])]

    def test_validation(self, built_deployment):
        meta = built_deployment.meta
        query = np.zeros(meta.dim, dtype=np.float32)
        with pytest.raises(ConfigError):
            meta.route_batch(query, 0, 16)
        assert meta_index.ROUTE_ALPHA >= 1.0


class TestAdaptiveClient:
    @pytest.fixture(scope="class")
    def queries(self, small_dataset):
        """Queries inside the corpus's clusters (``small_dataset.queries``
        come from other centres, equally far from every representative,
        so no gap forms), with their exact top-10."""
        noise = np.random.default_rng(1).normal(
            0.0, 0.01, size=(40, small_dataset.dim)).astype(np.float32)
        queries = small_dataset.vectors[::30] + noise
        return queries, exact_knn(small_dataset.vectors, queries, 10)

    @pytest.fixture(scope="class")
    def batches(self, built_deployment, small_config, queries):
        """The same batch through the fixed-width router and the rule."""
        def run():
            client = DHnswClient(built_deployment.layout,
                                 built_deployment.meta, small_config,
                                 scheme=Scheme.DHNSW,
                                 cost_model=built_deployment.cost_model)
            return client.search_batch(queries[0], 10, ef_search=48)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(meta_index, "ROUTE_ALPHA", math.inf)
            fixed = run()
        return fixed, run()

    def test_adaptive_reduces_traffic(self, batches):
        fixed_batch, adaptive_batch = batches
        assert (adaptive_batch.rdma.bytes_read
                <= fixed_batch.rdma.bytes_read)
        assert (adaptive_batch.breakdown.sub_hnsw_us
                < fixed_batch.breakdown.sub_hnsw_us)

    def test_adaptive_recall_stays_close(self, batches, queries):
        fixed_recall, adaptive_recall = (
            recall_at_k(batch.ids_list(), queries[1], 10)
            for batch in batches)
        assert adaptive_recall >= fixed_recall - 0.01

    def test_config_validation(self):
        """Routing has no knob: the retired switch is not a field."""
        with pytest.raises(TypeError):
            DHnswConfig(adaptive_nprobe=True)
