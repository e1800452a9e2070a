"""Distance-gap routing ablation (library extension beyond the paper).

Routing keeps, of a query's ``nprobe`` closest representatives, those
within ``ROUTE_ALPHA`` x the closest one's squared distance.  This sweeps
the ratio against the paper's fixed width (``ROUTE_ALPHA = inf``): work
saved per query vs recall given up.  One 400-query batch fetches every
cluster whatever the router keeps, so the saving shows in partitions
probed and sub-HNSW evaluations, not in bytes.
"""

from __future__ import annotations

import math

from repro.core import DHnswClient, Scheme, meta_index
from repro.metrics import recall_at_k

from .conftest import emit_table

ALPHAS = (1.0, 1.2, 1.35, 1.6, 2.0, 2.5, 3.0)


def test_ablation_adaptive_routing(sift_world, benchmark, monkeypatch):
    world = sift_world
    queries = world.dataset.queries
    shipped = meta_index.ROUTE_ALPHA

    def run(alpha):
        monkeypatch.setattr(meta_index, "ROUTE_ALPHA", alpha)
        routed = world.deployment.meta.route_batch(
            queries, world.config.nprobe, world.config.ef_meta)
        client = DHnswClient(world.deployment.layout,
                             world.deployment.meta, world.config,
                             scheme=Scheme.DHNSW,
                             cost_model=world.loaded_cost_model)
        batch = client.search_batch(queries, 10, ef_search=32)
        recall = recall_at_k(batch.ids_list(),
                             world.dataset.ground_truth, 10)
        return (sum(map(len, routed)) / len(queries),
                batch.sub_evals / len(queries),
                batch.latency_per_query_us, recall)

    measured = {alpha: run(alpha) for alpha in (math.inf, *ALPHAS)}
    monkeypatch.setattr(meta_index, "ROUTE_ALPHA", shipped)
    rows = [f"{'fixed' if alpha == math.inf else f'{alpha:.2f}':>8}"
            f"{'*' if alpha == shipped else ' '} {probes:>8.2f} "
            f"{evals:>10.1f} {latency:>11.2f} {recall:>10.3f}"
            for alpha, (probes, evals, latency, recall) in measured.items()]
    header = (f"{'alpha':>8}  {'probes/q':>8} {'sub_evals/q':>10} "
              f"{'latency_us':>11} {'recall@10':>10}")
    emit_table("ablation_adaptive", header, rows)

    fixed = measured[math.inf]
    # The shipped ratio gives up no recall against the paper's fixed width.
    assert measured[shipped][3] == fixed[3]
    # A larger ratio keeps more partitions: probes, work and recall rise
    # toward the fixed router's, never past it.
    for column in range(4):
        series = [measured[alpha][column] for alpha in (*ALPHAS, math.inf)]
        assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))
    # The shipped ratio saves real per-query work.
    assert measured[shipped][1] < fixed[1]
    assert measured[shipped][2] < fixed[2]

    client = world.client(Scheme.DHNSW)
    benchmark.pedantic(
        lambda: client.search_batch(queries, 10, ef_search=32),
        rounds=1, iterations=1)
    benchmark.extra_info["recall_by_alpha"] = {
        str(alpha): row[3] for alpha, row in measured.items()}
