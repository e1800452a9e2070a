"""Monolith vs disaggregation: the §1 motivation, quantified.

Three ways to serve the same corpus:

* **push-down** — a monolithic server runs HNSW next to the data on the
  memory instance's weak CPU; traffic is just queries and answers;
* **naive d-HNSW** — disaggregation done badly: compute pool re-fetches
  clusters per query;
* **d-HNSW** — disaggregation done right: meta routing + dedup + cache +
  doorbell.

Expected ordering (and the paper's whole pitch): naive disaggregation is
*worse than not disaggregating at all*, while d-HNSW beats both by
combining the compute pool's fast CPUs with near-zero traffic.
"""

from __future__ import annotations

from repro.baselines import PushdownServer
from repro.core import Scheme
from repro.core.config import SUB_PARAMS
from repro.metrics import recall_at_k

from .conftest import NUM_COMPUTE_INSTANCES, emit_table


def test_monolith_vs_disaggregation(sift_world, benchmark):
    world = sift_world
    queries = world.dataset.queries
    truth = world.dataset.ground_truth

    server = PushdownServer(world.dataset.vectors,
                            params=SUB_PARAMS,
                            cost_model=world.cost_model,
                            cpu_slowdown=4.0)
    contenders = {
        "pushdown-monolith": server,
        "naive-d-hnsw": world.client(Scheme.NAIVE),
        "d-hnsw": world.client(Scheme.DHNSW),
    }
    rows = []
    latency = {}
    throughput = {}
    for name, target in contenders.items():
        batch = target.search_batch(queries, 10, ef_search=48)
        if name == "d-hnsw":  # second batch: the steady (warm) state
            batch = target.search_batch(queries, 10, ef_search=48)
        recall = recall_at_k(batch.ids_list(), truth, 10)
        latency[name] = batch.latency_per_query_us
        # The monolith serves from ONE weak CPU; the d-HNSW schemes are
        # one of NUM_COMPUTE_INSTANCES identical instances, so the
        # system-level throughput multiplies.
        instances = (1 if name == "pushdown-monolith"
                     else NUM_COMPUTE_INSTANCES)
        throughput[name] = instances * 1e6 / latency[name]
        rows.append(f"{name:<20} {recall:>10.3f} "
                    f"{latency[name]:>11.2f} {throughput[name]:>15.0f} "
                    f"{batch.rdma.bytes_read + batch.rdma.bytes_written:>13}")

    header = (f"{'system':<20} {'recall@10':>10} {'latency_us':>11} "
              f"{'system_qps':>15} {'bytes_moved':>13}")
    rows.append("")
    rows.append(f"(d-HNSW: {NUM_COMPUTE_INSTANCES} instances sharing one "
                f"link; push-down: one weak server CPU)")
    emit_table("baseline_pushdown", header, rows)

    # The paper's motivating ordering: disaggregating naively is worse
    # than not disaggregating at all ...
    assert latency["naive-d-hnsw"] > latency["pushdown-monolith"], (
        "naive disaggregation should lose to the monolith")
    # ... while d-HNSW exploits the compute pool: per-query latency in
    # the monolith's ballpark AND an order of magnitude more system
    # throughput from the instance fan-out.
    assert latency["d-hnsw"] < 2 * latency["pushdown-monolith"]
    assert throughput["d-hnsw"] > 5 * throughput["pushdown-monolith"]

    benchmark.pedantic(
        lambda: server.search_batch(queries[:50], 10, ef_search=48),
        rounds=1, iterations=1)
    benchmark.extra_info["latency_by_system"] = latency
