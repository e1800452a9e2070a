"""Churn benchmark: concurrent writers against live readers, gated.

PR 10 moves the mutation path into ``repro.mutation``: CAS-arbitrated
multi-writer slot reservation, background shadow rebuilds with a
version-stamped cutover, and epoch-consistent reads with grace-period
reclamation.  This harness drives the whole story and gates it:

* **mixed read/write phases** — ``k`` concurrent writers interleaved
  with a closed-loop reader at 95/5 and 50/50 read/write mixes; every
  fifth write is a delete, alternating the oldest live insert and a base
  vector of the cluster the inserts are landing in, so the rebuilds the
  gates see unlink base nodes as well as append.
  Gates: **zero wrong or torn answers** — every read's results are
  bit-identical to a serialized oracle run that replays the same global
  op order through a *single* writer on a fresh build (op-granularity
  determinism makes the layouts equivalent per published version) —
  and **recall@10 under churn >= 0.95x** the no-churn baseline;
* **in-flight shadow rebuild** — a rebuild advanced step by step
  (acquire / snapshot / build / write / cutover) with reader batches
  between every step.  Gates: **search p99 during the rebuild <= 1.5x
  steady state**, and **no mutation stage ever appears in a reader's
  trace** — the build's wall-clock lives on the rebuilder, never in a
  reader's critical path.

Any violated gate exits non-zero, so the CI perf-smoke job doubles as
a regression gate.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_churn.py            # full
    PYTHONPATH=src python benchmarks/perf/bench_churn.py --ci
    PYTHONPATH=src python benchmarks/perf/bench_churn.py --quick

Writes ``benchmarks/perf/BENCH_churn.json`` (override with ``--output``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import time

import numpy as np

import repro.mutation.rebuild as rebuild_module
from repro.cluster import Deployment
from repro.core import DHnswConfig
from repro.core.client import DHnswClient
from repro.core.fsck import fsck
from repro.datasets import exact_knn
from repro.datasets.synthetic import make_clustered
from repro.layout.serializer import deserialize_cluster
from repro.mutation.rebuild import ShadowRebuild

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "BENCH_churn.json"

#: Inserted vectors come from a distribution shifted this far from the
#: base corpus, so churn does not perturb the queries' true neighbours
#: and recall stays comparable against the static ground truth.
INSERT_SHIFT = 10.0

#: Mutation stages that must never appear in a reader's trace.
MUTATION_STAGES = {"classify", "reserve", "snapshot", "build", "publish"}

#: Read/write mixes to gate (fraction of ops that are writes).
MIXES = {"95/5": 0.05, "50/50": 0.50}

#: Every ``DELETE_EVERY``-th write of a mix is a delete.
DELETE_EVERY = 5

SCALES = {
    "full": dict(num_vectors=40_000, dim=48, gen_clusters=80,
                 num_representatives=32, batch_size=64, ops_per_mix=240,
                 writers=3, capacity=24, steady_batches=12,
                 inflight_batches_per_step=3,
                 p99_inflight_factor=1.5, recall_floor=0.95),
    "ci": dict(num_vectors=12_000, dim=32, gen_clusters=48,
               num_representatives=24, batch_size=48, ops_per_mix=140,
               writers=3, capacity=16, steady_batches=10,
               inflight_batches_per_step=3,
               p99_inflight_factor=1.5, recall_floor=0.95),
    "quick": dict(num_vectors=5_000, dim=16, gen_clusters=20,
                  num_representatives=10, batch_size=32, ops_per_mix=80,
                  writers=2, capacity=12, steady_batches=8,
                  inflight_batches_per_step=2,
                  p99_inflight_factor=1.5, recall_floor=0.95),
}


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"ACCEPTANCE FAILURE: {what}")


def p99(latencies: list[float]) -> float:
    return float(np.percentile(np.asarray(latencies), 99))


def batch_slices(queries: np.ndarray, batch_size: int, batches: int):
    """Deterministic rotating batches so phases see varied queries."""
    out = []
    for index in range(batches):
        rolled = np.roll(queries, -index * 7, axis=0)
        out.append(np.ascontiguousarray(rolled[:batch_size]))
    return out


def build_schedule(write_fraction: float, total_ops: int,
                   num_writers: int, seed: int):
    """Deterministic global op order for one mix.

    Each element is ``("read", batch_index)`` or
    ``("write", writer_index, write_index)``; writers take writes
    round-robin, so every writer stays active throughout the run.
    """
    writes = max(1, round(total_ops * write_fraction))
    reads = total_ops - writes
    flags = np.zeros(total_ops, dtype=bool)
    flags[:writes] = True
    rng = np.random.default_rng(seed)
    flags = flags[rng.permutation(total_ops)]
    schedule = []
    read_index = write_index = 0
    for is_write in flags:
        if is_write:
            schedule.append(("write", write_index % num_writers,
                             write_index))
            write_index += 1
        else:
            schedule.append(("read", read_index))
            read_index += 1
    return schedule, writes, reads


def plan_writes(corpus: np.ndarray, insert_vectors: np.ndarray):
    """The mix's writes in order: ``(verb, vector, global_id)``.

    Fixed before either run, so the churn run and the oracle replay
    issue the same deletes.  Deletes alternate between the oldest insert
    still live (by then usually folded into a base graph) and the live
    base vector nearest the latest insert, which routes to the cluster
    the inserts are filling — the groups that rebuild are the ones that
    hold tombstones of base nodes.
    """
    writes = []
    live_inserts: list[int] = []
    base_live = np.ones(len(corpus), dtype=bool)
    deletes = 0
    for index, vector in enumerate(insert_vectors):
        if index % DELETE_EVERY != DELETE_EVERY - 1 or not live_inserts:
            writes.append(("insert", vector, 1_000_000 + index))
            live_inserts.append(index)
            continue
        if deletes % 2 == 0:
            victim = live_inserts.pop(0)
            writes.append(("delete", insert_vectors[victim],
                           1_000_000 + victim))
        else:
            gaps = corpus - insert_vectors[live_inserts[-1]]
            distances = np.einsum("ij,ij->i", gaps, gaps)
            distances[~base_live] = np.inf
            victim = int(distances.argmin())
            base_live[victim] = False
            writes.append(("delete", corpus[victim], victim))
        deletes += 1
    return writes


class RebuildTap:
    """Wall time of the member rebuild tasks and how many of them
    unlinked base nodes, while installed (in-process builds only)."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.member_rebuilds = 0
        self.member_rebuilds_removing_nodes = 0
        self._task = rebuild_module.rebuild_cluster_blob

    def __enter__(self) -> "RebuildTap":
        rebuild_module.rebuild_cluster_blob = self._timed
        return self

    def __exit__(self, *exc_info) -> None:
        rebuild_module.rebuild_cluster_blob = self._task

    def _timed(self, task):
        start = time.perf_counter()
        blob = self._task(task)
        self.wall_s += time.perf_counter() - start
        self.member_rebuilds += 1
        base_labels = deserialize_cluster(task.blob)[0].labels
        self.member_rebuilds_removing_nodes += not {
            record.global_id for record in task.records
        }.isdisjoint(base_labels)
        return blob


def recall_at_10(results, truth: np.ndarray) -> float:
    hits = 0
    for result, want in zip(results, truth):
        hits += len(set(result.ids.tolist()) & set(want[:10].tolist()))
    return hits / (10 * len(results))


def run_schedule(deployment, config, schedule, read_batches,
                 writes, num_writers: int):
    """Execute one mix's global op order; returns answers + metrics.

    ``num_writers == 1`` is the serialized oracle: the identical op
    order pushed through a single writer client.
    """
    writers = [DHnswClient(deployment.layout, deployment.meta, config,
                           cost_model=deployment.cost_model,
                           name=f"writer{i}")
               for i in range(num_writers)]
    reader = deployment.make_client(deployment.scheme, name="reader")
    answers = []
    latencies = []
    recalls = []
    for op in schedule:
        if op[0] == "write":
            _, writer_index, write_index = op
            verb, vector, global_id = writes[write_index]
            getattr(writers[writer_index % num_writers], verb)(
                vector, global_id)
        else:
            _, read_index = op
            queries, truth = read_batches[read_index % len(read_batches)]
            batch = reader.search_batch(queries, k=10, ef_search=48)
            answers.append([(r.ids.tolist(), r.distances.tolist())
                            for r in batch.results])
            latencies.append(batch.latency_per_query_us)
            recalls.append(recall_at_10(batch.results, truth))
            stages = {stage.name for stage in batch.trace.report()}
            check(not stages & MUTATION_STAGES,
                  f"mutation stages {stages & MUTATION_STAGES} leaked "
                  f"into a reader trace")
    stats = {
        "rebuilds_led": sum(w.mutation.stats.rebuilds_led
                            for w in writers),
        "rebuilds_yielded": sum(w.mutation.stats.rebuilds_yielded
                                for w in writers),
        "sealed_retries": sum(w.mutation.stats.sealed_retries
                              for w in writers),
        "records_migrated": sum(w.mutation.stats.records_migrated
                                for w in writers),
        "cas_failures": sum(w.node.stats.cas_failures for w in writers),
        "reclaimed_bytes": sum(w.mutation.stats.reclaimed_bytes
                               for w in writers)
        + reader.mutation.stats.reclaimed_bytes,
    }
    for writer in writers:
        writer.close()
    reader.close()
    return answers, latencies, recalls, stats


def run_mix(mix_name: str, write_fraction: float, corpus, queries, truth,
            config, scale, baseline_recall: float):
    """One mixed phase: churn run, serialized-oracle replay, gates."""
    schedule, writes, reads = build_schedule(
        write_fraction, scale["ops_per_mix"], scale["writers"],
        seed=hash_mix(mix_name))
    insert_vectors = (make_clustered(
        writes, scale["dim"], num_clusters=scale["gen_clusters"],
        cluster_std=0.08, rng=np.random.default_rng(7 + writes))
        + INSERT_SHIFT).astype(np.float32)
    planned = plan_writes(corpus, insert_vectors)
    read_batches = [(batch, truth_for(batch, queries, truth))
                    for batch in batch_slices(queries,
                                              scale["batch_size"], 6)]

    churn = Deployment(corpus, config, simulate_link_contention=False)
    with RebuildTap() as tap:
        answers, latencies, recalls, stats = run_schedule(
            churn, config, schedule, read_batches, planned,
            scale["writers"])
    report = fsck(churn.layout)
    check(report.clean,
          f"[{mix_name}] layout not fsck-clean after churn:\n"
          + report.summary())

    oracle = Deployment(corpus, config, simulate_link_contention=False)
    oracle_answers, _, _, _ = run_schedule(
        oracle, config, schedule, read_batches, planned, num_writers=1)

    torn = sum(1 for got, want in zip(answers, oracle_answers)
               if got != want)
    check(torn == 0,
          f"[{mix_name}] {torn}/{len(answers)} read batches diverged "
          f"from the serialized single-writer oracle")
    churn_recall = float(np.mean(recalls))
    check(churn_recall >= scale["recall_floor"] * baseline_recall,
          f"[{mix_name}] recall@10 under churn {churn_recall:.4f} fell "
          f"below {scale['recall_floor']:.2f}x the no-churn baseline "
          f"{baseline_recall:.4f}")
    return {
        "write_fraction": write_fraction,
        "writers": scale["writers"],
        "ops": {"writes": writes,
                "deletes": sum(verb == "delete" for verb, _, _ in planned),
                "read_batches": reads},
        "recall_at_10": round(churn_recall, 4),
        "recall_vs_baseline": round(churn_recall / baseline_recall, 4),
        "search_p99_us_per_query": round(p99(latencies), 3),
        "search_mean_us_per_query": round(float(np.mean(latencies)), 3),
        "writer_contention": stats,
        # Recorded, not gated: wall clocks are the machine's.
        "rebuild_wall_s_per_rebuild": round(
            tap.wall_s / stats["rebuilds_led"], 4)
        if stats["rebuilds_led"] else None,
        "member_rebuilds": tap.member_rebuilds,
        "member_rebuilds_removing_nodes":
            tap.member_rebuilds_removing_nodes,
        "oracle_batches_compared": len(answers),
        "torn_or_wrong_answers": torn,
    }


def hash_mix(mix_name: str) -> int:
    """Stable small seed per mix (``hash()`` is salted per process)."""
    return sum(ord(char) for char in mix_name)


def truth_for(batch: np.ndarray, queries: np.ndarray,
              truth: np.ndarray) -> np.ndarray:
    """Ground-truth rows aligned with a rolled batch slice."""
    index = {queries[i].tobytes(): i for i in range(len(queries))}
    return np.stack([truth[index[row.tobytes()]] for row in batch])


def run_inflight_phase(corpus, queries, config, scale):
    """Steady-state vs in-flight-rebuild read latency, trace-verified."""
    deployment = Deployment(corpus, config, simulate_link_contention=False)
    writer = DHnswClient(deployment.layout, deployment.meta, config,
                         cost_model=deployment.cost_model, name="writer0")
    reader = deployment.make_client(deployment.scheme, name="reader")
    batches = batch_slices(queries, scale["batch_size"],
                           scale["steady_batches"])

    # Fill one group to capacity so a rebuild has real work to do.
    probe = queries[0]
    for i in range(scale["capacity"]):
        writer.insert(probe + i * 1e-4, 2_000_000 + i)
    group_id = writer.metadata.clusters[
        writer.meta.classify(probe)].group_id

    reader.search_batch(batches[0], k=10, ef_search=48)  # warm the cache
    steady = [reader.search_batch(batch, k=10,
                                  ef_search=48).latency_per_query_us
              for batch in batches]

    rebuild = ShadowRebuild(writer, group_id)
    inflight = []
    steps = []
    rotation = 0
    build_wall_start = time.perf_counter()
    while not rebuild.done:
        steps.append(rebuild.step())
        for _ in range(scale["inflight_batches_per_step"]):
            batch = reader.search_batch(
                batches[rotation % len(batches)], k=10, ef_search=48)
            rotation += 1
            inflight.append(batch.latency_per_query_us)
            stages = {stage.name for stage in batch.trace.report()}
            check(not stages & MUTATION_STAGES,
                  f"rebuild stage leaked into a reader trace during "
                  f"step '{steps[-1]}': {stages & MUTATION_STAGES}")
    rebuild_wall_s = time.perf_counter() - build_wall_start
    check(steps == list(ShadowRebuild.STEPS),
          f"rebuild steps ran out of order: {steps}")
    check(reader.metadata.version == writer.metadata.version,
          "reader never observed the cutover's published version")

    steady_p99, inflight_p99 = p99(steady), p99(inflight)
    check(inflight_p99 <= steady_p99 * scale["p99_inflight_factor"],
          f"search p99 during the in-flight rebuild "
          f"({inflight_p99:.1f} us) blew past "
          f"{scale['p99_inflight_factor']:.1f}x steady state "
          f"({steady_p99:.1f} us)")
    report = fsck(deployment.layout)
    check(report.clean, "layout not fsck-clean after the in-flight "
          "rebuild:\n" + report.summary())
    result = {
        "rebuilt_group": group_id,
        "steady_p99_us_per_query": round(steady_p99, 3),
        "inflight_p99_us_per_query": round(inflight_p99, 3),
        "inflight_vs_steady": round(inflight_p99 / steady_p99, 3),
        "reader_batches_during_rebuild": len(inflight),
        "rebuild_wall_seconds": round(rebuild_wall_s, 3),
        "records_migrated": rebuild.migrated_records,
    }
    writer.close()
    reader.close()
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--ci", action="store_true",
                       help="12k-vector churn-smoke run")
    group.add_argument("--quick", action="store_true",
                       help="5k-vector local iteration run")
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
    truth = exact_knn(corpus, queries, 10)

    config = DHnswConfig(num_representatives=scale["num_representatives"],
                         nprobe=3, ef_meta=24, cache_fraction=0.15,
                         overflow_capacity_records=scale["capacity"],
                         seed=42)

    # --- no-churn baseline recall ----------------------------------------
    build_start = time.perf_counter()
    baseline = Deployment(corpus, config, simulate_link_contention=False)
    build_seconds = time.perf_counter() - build_start
    calm = baseline.make_client(baseline.scheme, name="calm")
    read_batches = batch_slices(queries, scale["batch_size"], 6)
    baseline_recall = float(np.mean([
        recall_at_10(calm.search_batch(batch, k=10, ef_search=48).results,
                     truth_for(batch, queries, truth))
        for batch in read_batches]))
    calm.close()

    # --- mixed phases ----------------------------------------------------
    mixes = {}
    for mix_name, write_fraction in MIXES.items():
        mixes[mix_name] = run_mix(mix_name, write_fraction, corpus,
                                  queries, truth, config, scale,
                                  baseline_recall)

    # --- in-flight rebuild phase -----------------------------------------
    inflight = run_inflight_phase(corpus, queries, config, scale)

    report = {
        "benchmark": "concurrent-writer churn with shadow rebuilds",
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
            "writers": scale["writers"],
            "ops_per_mix": scale["ops_per_mix"],
            "overflow_capacity_records": scale["capacity"],
            "insert_shift": INSERT_SHIFT,
        },
        "build_seconds": round(build_seconds, 1),
        "baseline_recall_at_10": round(baseline_recall, 4),
        "mixes": mixes,
        "inflight_rebuild": inflight,
        "acceptance": {
            "torn_or_wrong_answers": sum(
                mix["torn_or_wrong_answers"] for mix in mixes.values()),
            "recall_floor": scale["recall_floor"],
            "p99_inflight_factor": scale["p99_inflight_factor"],
            "reader_traces_free_of_mutation_stages": True,
            "fsck_clean_after_churn": True,
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({key: report[key] for key in
                      ("baseline_recall_at_10", "mixes",
                       "inflight_rebuild", "acceptance")}, indent=2))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
