"""The monolithic push-down comparator."""

from __future__ import annotations

import pytest

from repro.baselines import PushdownServer
from repro.errors import ConfigError
from repro.metrics import recall_at_k


@pytest.fixture(scope="module")
def server(small_dataset):
    return PushdownServer(small_dataset.vectors, cpu_slowdown=4.0)


class TestCorrectness:
    def test_recall(self, server, small_dataset):
        batch = server.search_batch(small_dataset.queries, 10,
                                    ef_search=48)
        assert recall_at_k(batch.ids_list(),
                           small_dataset.ground_truth, 10) >= 0.85

    def test_single_query(self, server, small_dataset):
        result = server.search(small_dataset.vectors[3], 1, ef_search=16)
        assert result.ids[0] == 3

    def test_k_validation(self, server, small_dataset):
        with pytest.raises(ValueError):
            server.search_batch(small_dataset.queries, 0)

    def test_slowdown_validation(self, small_dataset):
        with pytest.raises(ConfigError):
            PushdownServer(small_dataset.vectors, cpu_slowdown=0.5)


class TestAccounting:
    def test_network_is_request_response_only(self, server,
                                              small_dataset):
        batch = server.search_batch(small_dataset.queries[:10], 5,
                                    ef_search=16)
        # 10 request WRITEs + 10 response READs, nothing else.
        assert batch.rdma.write_ops == 10
        assert batch.rdma.read_ops == 10
        assert batch.rdma.round_trips == 20
        # Tiny payloads: dim*4 + k*12 per query.
        dim = small_dataset.dim
        assert batch.rdma.bytes_written == 10 * dim * 4
        assert batch.rdma.bytes_read == 10 * 5 * 12

    def test_server_cpu_slowdown_applied(self, small_dataset):
        slow = PushdownServer(small_dataset.vectors, cpu_slowdown=8.0)
        fast = PushdownServer(small_dataset.vectors, cpu_slowdown=1.0)
        slow_batch = slow.search_batch(small_dataset.queries[:5], 5,
                                       ef_search=16)
        fast_batch = fast.search_batch(small_dataset.queries[:5], 5,
                                       ef_search=16)
        ratio = (slow_batch.breakdown.sub_hnsw_us
                 / fast_batch.breakdown.sub_hnsw_us)
        assert ratio == pytest.approx(8.0, rel=0.01)

    def test_network_independent_of_corpus_size(self, small_dataset):
        """Push-down's defining property: traffic does not grow with the
        index — only with queries and answers."""
        small = PushdownServer(small_dataset.vectors[:200])
        large = PushdownServer(small_dataset.vectors)
        a = small.search_batch(small_dataset.queries[:5], 5, ef_search=16)
        b = large.search_batch(small_dataset.queries[:5], 5, ef_search=16)
        assert a.rdma.bytes_written == b.rdma.bytes_written
        assert a.rdma.bytes_read == b.rdma.bytes_read
