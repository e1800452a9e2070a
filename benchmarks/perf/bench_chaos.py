"""Chaos benchmark: kill a memory node mid-run, gate the failover story.

PR 7 replicates the memory pool ``replication_factor`` ways behind the
transport seam: READs route by health + queue depth, a replica whose
retry budget is exhausted is failed over *within the request* and queued
for fsck-driven repair.  This harness stands up a 3-way replicated
deployment and drives it through a full failure lifecycle:

* **healthy phase** — steady-state batches, baseline answers + latency;
* **kill** — one replica starts timing out every READ (a dead NIC) and
  its region is scribbled with bit rot;
* **degraded phase** — serving continues on the survivors.  Gates:
  **zero wrong answers** (every result bit-identical to a calm client's)
  and a **bounded p99 blip** (the failover detour pays retry timeouts +
  backoff once, then routing avoids the corpse);
* **repair** — the replica is revived, ``run_pending_repairs`` re-copies
  damaged extents from a healthy peer.  Gates: ``failovers > 0``,
  ``repaired extents == damaged extents``, fsck-clean on every replica;
* **recovered phase** — latency returns to the healthy envelope and the
  repaired replica serves reads again.

Any violated gate exits non-zero, so the CI perf-smoke job doubles as a
regression gate.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_chaos.py            # full
    PYTHONPATH=src python benchmarks/perf/bench_chaos.py --ci
    PYTHONPATH=src python benchmarks/perf/bench_chaos.py --quick

Writes ``benchmarks/perf/BENCH_chaos.json`` (override with ``--output``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import time

import numpy as np

from repro.cluster import Deployment
from repro.core import DHnswConfig
from repro.core.client import DHnswClient
from repro.core.fsck import fsck
from repro.datasets.synthetic import make_clustered
from repro.transport import (
    FaultInjectingTransport,
    FaultKind,
    FaultPlan,
    ReplicaHealth,
)

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "BENCH_chaos.json"

#: Replica READs time out after this long; the retry budget burns
#: ``max_retries`` re-attempts before the failover kicks in.
TIMEOUT_US = 500.0
MAX_RETRIES = 2

#: Per-mode scenario sizes and acceptance budgets.  The p99 blip factor
#: bounds how much slower the worst degraded batch may be than the
#: healthy-phase p99: the detour pays (retries + 1) x timeout + backoff
#: exactly once per victim-routed extent, then routing avoids the dead
#: replica.  The recovered factor bounds the post-repair p99 the same
#: way (it should be back inside the healthy envelope, modulo cache
#: state).
SCALES = {
    "full": dict(num_vectors=60_000, dim=64, gen_clusters=120,
                 num_representatives=48, batch_size=128, batches=12,
                 p99_blip_factor=4.0, recovered_factor=1.5),
    "ci": dict(num_vectors=20_000, dim=32, gen_clusters=60,
               num_representatives=24, batch_size=64, batches=8,
               p99_blip_factor=4.0, recovered_factor=1.5),
    "quick": dict(num_vectors=8_000, dim=16, gen_clusters=24,
                  num_representatives=12, batch_size=32, batches=6,
                  p99_blip_factor=4.0, recovered_factor=1.5),
}

VICTIM = 0  # kill the primary: the most dramatic failure


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"ACCEPTANCE FAILURE: {what}")


def batch_slices(queries: np.ndarray, batch_size: int, batches: int):
    """Deterministic rotating batches so phases see varied queries."""
    out = []
    for index in range(batches):
        rolled = np.roll(queries, -index * 7, axis=0)
        out.append(np.ascontiguousarray(rolled[:batch_size]))
    return out


def run_phase(client, oracle_answers, batches, wrong: list[int]):
    """Serve every batch; count answer mismatches, return p.q. latencies."""
    latencies = []
    for queries, want in zip(batches, oracle_answers):
        batch = client.search_batch(queries, k=10, ef_search=32)
        got = [(r.ids.tolist(), r.distances.tolist())
               for r in batch.results]
        wrong[0] += sum(1 for answer, truth in zip(got, want)
                        if answer != truth)
        latencies.append(batch.latency_per_query_us)
    return latencies


def p99(latencies: list[float]) -> float:
    return float(np.percentile(np.asarray(latencies), 99))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--ci", action="store_true",
                       help="20k-vector chaos-smoke run")
    group.add_argument("--quick", action="store_true",
                       help="8k-vector local iteration run")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    mode = "ci" if args.ci else "quick" if args.quick else "full"
    scale = SCALES[mode]

    rng = np.random.default_rng(42)
    corpus = make_clustered(scale["num_vectors"], scale["dim"],
                            num_clusters=scale["gen_clusters"],
                            cluster_std=0.08, rng=rng)
    queries = make_clustered(scale["batch_size"] * 4, scale["dim"],
                             num_clusters=scale["gen_clusters"],
                             cluster_std=0.08, rng=rng)

    config = DHnswConfig(num_representatives=scale["num_representatives"],
                         nprobe=3, ef_meta=24, cache_fraction=0.15,
                         overflow_capacity_records=16, seed=42,
                         replication_factor=3)
    build_start = time.perf_counter()
    deployment = Deployment(corpus, config, simulate_link_contention=False)
    build_seconds = time.perf_counter() - build_start
    layout = deployment.layout
    check(len(layout.memory_nodes) == 3, "expected a 3-way replicated pool")

    # The chaos client: per-replica fault layers with mutable plans (the
    # kill switch), a bounded retry budget under the replication layer.
    plans = [FaultPlan() for _ in range(3)]
    client = DHnswClient(
        layout, deployment.meta, config, cost_model=deployment.cost_model,
        name="chaos",
        max_retries=MAX_RETRIES,
        replica_transport_factory=lambda base, i:
            FaultInjectingTransport(base, plans[i], timeout_us=TIMEOUT_US))
    replicated = client._replicated_transport()
    # The calm oracle over the same layout: its answers are the truth
    # every chaos-phase result must match bit-for-bit.
    oracle = deployment.make_client(deployment.scheme, name="oracle")

    batches = batch_slices(queries, scale["batch_size"], scale["batches"])
    oracle_answers = []
    for batch_queries in batches:
        batch = oracle.search_batch(batch_queries, k=10, ef_search=32)
        oracle_answers.append([(r.ids.tolist(), r.distances.tolist())
                               for r in batch.results])

    wrong = [0]
    healthy_lat = run_phase(client, oracle_answers, batches, wrong)

    # --- kill the victim -------------------------------------------------
    plans[VICTIM].fault_rate = 1.0
    plans[VICTIM].kinds = (FaultKind.TIMEOUT,)
    # Bit rot on the dead node: scribble two cluster blobs.  On real
    # hardware remote corruption cannot reach entries already decoded
    # into compute DRAM; the simulator's zero-copy views would alias it,
    # so privatize them (the same API replica repair uses) and drop the
    # simulation-only decode memo.
    client.cache.materialize_all()
    oracle.cache.materialize_all()
    client.engine.decoder.drop_memo()
    oracle.engine.decoder.drop_memo()
    victim_node = layout.memory_nodes[VICTIM]
    damaged_clusters = [0, 1]
    for cid in damaged_clusters:
        cluster = layout.metadata.clusters[cid]
        victim_node.write(layout.rkey, layout.addr(cluster.blob_offset),
                          b"\xcd" * min(64, cluster.blob_length))
    check(not fsck(layout, replica=VICTIM).clean,
          "scribbled replica still fsck-clean — damage did not land")

    degraded_lat = run_phase(client, oracle_answers, batches, wrong)
    failovers = client.node.stats.failovers
    check(failovers > 0, "no failover happened during the degraded phase")
    check(replicated.selector.health(VICTIM) is ReplicaHealth.UNHEALTHY,
          "victim replica was not marked unhealthy")
    check(replicated.pending_repairs == [VICTIM],
          "victim replica was not queued for repair")

    # --- revive + repair -------------------------------------------------
    plans[VICTIM].fault_rate = 0.0
    reports = client.run_pending_repairs()
    check([report.replica for report in reports] == [VICTIM],
          "repair pass did not target the victim replica")
    total_damaged = sum(report.extents_damaged for report in reports)
    total_repaired = sum(report.extents_repaired for report in reports)
    check(total_damaged == total_repaired == len(damaged_clusters),
          f"repair mismatch: {total_damaged} damaged, "
          f"{total_repaired} repaired, {len(damaged_clusters)} scribbled")
    for replica in range(3):
        check(fsck(layout, replica=replica).clean,
              f"replica {replica} not fsck-clean after repair")
    check(replicated.selector.health(VICTIM) is ReplicaHealth.HEALTHY,
          "victim replica not readmitted after repair")

    reads_before_recovery = replicated.selector.reads_by_replica[VICTIM]
    recovered_lat = run_phase(client, oracle_answers, batches, wrong)
    check(replicated.selector.reads_by_replica[VICTIM]
          > reads_before_recovery,
          "repaired replica served no reads in the recovered phase")

    # --- gates -----------------------------------------------------------
    check(wrong[0] == 0,
          f"{wrong[0]} wrong answers across the chaos run")
    healthy_p99, degraded_p99 = p99(healthy_lat), p99(degraded_lat)
    recovered_p99 = p99(recovered_lat)
    check(degraded_p99 <= healthy_p99 * scale["p99_blip_factor"],
          f"degraded p99 {degraded_p99:.1f} us blew past "
          f"{scale['p99_blip_factor']:.1f}x the healthy p99 "
          f"{healthy_p99:.1f} us")
    check(recovered_p99 <= healthy_p99 * scale["recovered_factor"],
          f"recovered p99 {recovered_p99:.1f} us did not return to the "
          f"healthy envelope ({healthy_p99:.1f} us)")

    report = {
        "benchmark": "replica kill / failover / repair chaos run",
        "mode": mode,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count() or 1,
        },
        "scenario": {
            "num_vectors": scale["num_vectors"],
            "dim": scale["dim"],
            "replication_factor": 3,
            "victim_replica": VICTIM,
            "timeout_us": TIMEOUT_US,
            "max_retries": MAX_RETRIES,
            "batches_per_phase": scale["batches"],
            "batch_size": scale["batch_size"],
        },
        "build_seconds": round(build_seconds, 1),
        "phases": {
            "healthy": {"p99_us_per_query": round(healthy_p99, 3),
                        "mean_us_per_query": round(
                            float(np.mean(healthy_lat)), 3)},
            "degraded": {"p99_us_per_query": round(degraded_p99, 3),
                         "mean_us_per_query": round(
                             float(np.mean(degraded_lat)), 3)},
            "recovered": {"p99_us_per_query": round(recovered_p99, 3),
                          "mean_us_per_query": round(
                              float(np.mean(recovered_lat)), 3)},
        },
        "failovers": int(failovers),
        "retries": int(client.node.stats.retries),
        "faults_injected": int(client.node.stats.faults_injected),
        "damaged_extents": int(total_damaged),
        "repaired_extents": int(total_repaired),
        "replica_reads": list(replicated.selector.reads_by_replica),
        "acceptance": {
            "wrong_answers": wrong[0],
            "failovers_positive": failovers > 0,
            "repaired_equals_damaged": total_damaged == total_repaired,
            "p99_blip_factor": scale["p99_blip_factor"],
            "p99_blip_measured": round(degraded_p99 / healthy_p99, 3),
            "fsck_clean_after_repair": True,
        },
    }

    client.close()
    oracle.close()
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({k: report[k] for k in
                      ("phases", "failovers", "damaged_extents",
                       "repaired_extents", "replica_reads",
                       "acceptance")}, indent=2))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
