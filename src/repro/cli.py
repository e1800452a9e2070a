"""Command-line interface.

Four subcommands cover the library's lifecycle end to end::

    dhnsw build  --dataset sift-like --num-vectors 5000 --out ./dep
    dhnsw info   --index ./dep
    dhnsw query  --index ./dep --k 10 --ef 48 --scheme d-hnsw
    dhnsw insert --index ./dep --count 100 --save

``build`` persists the deployment *and* its query set / exact ground
truth (``queries.fvecs`` / ``ground_truth.ivecs``), so ``query`` can
report recall without regenerating anything.
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import sys
import time

import numpy as np

from repro.core import DHnswClient, DHnswConfig, Scheme
from repro.core.engine import DHnswBuilder
from repro.datasets import (
    gist_like,
    read_fvecs,
    read_ivecs,
    sift_like,
    write_fvecs,
    write_ivecs,
)
from repro.datasets.synthetic import Dataset, exact_knn, make_clustered
from repro.errors import ReproError
from repro.layout.serializer import cluster_blob_split
from repro.metrics import recall_at_k
from repro.persist import load_deployment, save_deployment

__all__ = ["main"]

_SCHEMES = {scheme.value: scheme for scheme in Scheme}


def _make_dataset(name: str, num_vectors: int, num_queries: int,
                  seed: int) -> Dataset:
    if name == "sift-like":
        return sift_like(num_vectors=num_vectors, num_queries=num_queries,
                         seed=seed)
    if name == "gist-like":
        return gist_like(num_vectors=num_vectors, num_queries=num_queries,
                         seed=seed)
    if name == "random":
        rng = np.random.default_rng(seed)
        corpus = make_clustered(num_vectors + num_queries, 64, 32, 0.05,
                                rng)
        vectors, queries = corpus[:num_vectors], corpus[num_vectors:]
        return Dataset(name="random", vectors=vectors, queries=queries,
                       ground_truth=exact_knn(vectors, queries, 10))
    raise ReproError(f"unknown dataset {name!r}")


def _cmd_build(args: argparse.Namespace) -> int:
    out = pathlib.Path(args.out)
    print(f"generating {args.dataset} "
          f"({args.num_vectors} vectors, {args.num_queries} queries)...")
    dataset = _make_dataset(args.dataset, args.num_vectors,
                            args.num_queries, args.seed)
    config = DHnswConfig(
        num_representatives=args.num_representatives,
        nprobe=args.nprobe, seed=args.seed)
    print("building d-HNSW layout...")
    started = time.perf_counter()
    builder = DHnswBuilder(config)
    meta, layout, report = builder.build(dataset.vectors)
    elapsed = time.perf_counter() - started
    save_deployment(out, layout, meta, config)
    write_fvecs(out / "queries.fvecs", dataset.queries)
    write_ivecs(out / "ground_truth.ivecs", dataset.ground_truth)
    print(f"built {report.num_partitions} partitions "
          f"({report.num_groups} groups) over {report.num_vectors} "
          f"vectors in {elapsed:.1f}s wall")
    print(f"meta-HNSW: {report.meta_hnsw_bytes / 1024:.1f} KiB; "
          f"remote layout: {report.total_blob_bytes / 2**20:.2f} MiB; "
          f"saved to {out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    meta, layout, config = load_deployment(args.index)
    metadata = layout.metadata
    print(f"deployment        : {args.index}")
    print(f"dimensions        : {layout.dim}")
    print(f"partitions        : {metadata.num_clusters} "
          f"in {metadata.num_groups} groups")
    print(f"metadata version  : {metadata.version}")
    print(f"overflow capacity : {metadata.overflow_capacity_records} "
          f"records/group")
    print(f"region            : {layout.region.length / 2**20:.2f} MiB "
          f"({layout.allocator.fragmentation():.1%} fragmented)")
    # What a cluster miss moves: each hot blob's header says its split.
    splits = [cluster_blob_split(layout.memory_node.read(
        layout.rkey, layout.addr(cluster.blob_offset), cluster.blob_length))
        for cluster in metadata.clusters]
    total = sum(cluster.blob_length for cluster in metadata.clusters)
    print(f"hot blobs         : {total / 1024:.1f} KiB = vectors "
          f"{sum(s.vectors for s in splits) / 1024:.1f} KiB / graph "
          f"{sum(s.graph for s in splits) / 1024:.1f} KiB / labels + levels "
          f"{sum(s.labels_levels for s in splits) / 1024:.1f} KiB")
    widths = collections.Counter(split.id_width for split in splits)
    print("id widths         : " + ", ".join(
        f"{count} blob(s) at {width} B" for width, count in sorted(
            widths.items())))
    print(f"meta-HNSW         : {meta.num_partitions} representatives, "
          f"{meta.serialized_size_bytes() / 1024:.1f} KiB, "
          f"layers {meta.index.layer_sizes()}")
    print(f"config            : nprobe={config.nprobe} "
          f"ef_meta={config.ef_meta} "
          f"cache_fraction={config.cache_fraction}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    index_dir = pathlib.Path(args.index)
    meta, layout, config = load_deployment(index_dir)
    queries = read_fvecs(index_dir / "queries.fvecs",
                         max_vectors=args.num_queries)
    truth = read_ivecs(index_dir / "ground_truth.ivecs",
                       max_vectors=args.num_queries)
    client = DHnswClient(layout, meta, config,
                         scheme=_SCHEMES[args.scheme])
    batch = client.search_batch(queries, args.k, ef_search=args.ef)
    per_query = batch.per_query_breakdown()
    k_for_recall = min(args.k, truth.shape[1])
    recall = recall_at_k([ids[:k_for_recall]
                          for ids in batch.ids_list()],
                         truth, k_for_recall)
    print(f"scheme             : {args.scheme}")
    print(f"queries            : {batch.batch_size} "
          f"(k={args.k}, efSearch={args.ef})")
    print(f"recall@{k_for_recall:<2}         : {recall:.3f}")
    print(f"latency/query      : {per_query.total_us:.2f} us (simulated)")
    print(f"  network          : {per_query.network_us:.2f} us")
    print(f"  sub-HNSW         : {per_query.sub_hnsw_us:.2f} us")
    print(f"  meta-HNSW        : {per_query.meta_hnsw_us:.3f} us")
    print(f"round trips/query  : {batch.round_trips_per_query:.4f}")
    print(f"throughput         : {batch.throughput_qps:.0f} qps (simulated)")
    return 0


def _cmd_insert(args: argparse.Namespace) -> int:
    index_dir = pathlib.Path(args.index)
    meta, layout, config = load_deployment(index_dir)
    queries = read_fvecs(index_dir / "queries.fvecs")
    client = DHnswClient(layout, meta, config)
    rng = np.random.default_rng(args.seed)
    base_id = args.first_id
    rebuilds = 0
    before = client.node.stats.snapshot()
    for i in range(args.count):
        anchor = queries[int(rng.integers(0, queries.shape[0]))]
        vector = anchor + rng.normal(0, 1e-3, anchor.shape).astype(
            np.float32)
        report = client.insert(vector, base_id + i)
        rebuilds += report.triggered_rebuild
    delta = client.node.stats.delta(before)
    print(f"inserted {args.count} vectors "
          f"(ids {base_id}..{base_id + args.count - 1})")
    print(f"rebuilds: {rebuilds}; round trips: {delta.round_trips} "
          f"({delta.round_trips / args.count:.2f}/insert); "
          f"bytes written: {delta.bytes_written}")
    if args.save:
        save_deployment(index_dir, layout, meta, config)
        print(f"saved back to {index_dir}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.tuning import tune_ef_search
    index_dir = pathlib.Path(args.index)
    meta, layout, config = load_deployment(index_dir)
    queries = read_fvecs(index_dir / "queries.fvecs")
    truth = read_ivecs(index_dir / "ground_truth.ivecs")
    client = DHnswClient(layout, meta, config)
    k = min(args.k, truth.shape[1])
    result = tune_ef_search(client, queries, truth, k,
                            target_recall=args.target_recall,
                            ef_max=args.ef_max)
    print(f"target recall@{k}  : {args.target_recall}")
    print(f"chosen efSearch    : {result.ef_search} "
          f"({'met' if result.target_met else 'NOT met'})")
    print(f"measured recall    : {result.recall:.3f}")
    print(f"latency/query      : {result.latency_per_query_us:.2f} us "
          f"(simulated)")
    print(f"probes             : "
          + ", ".join(f"ef={ef}:{recall:.3f}"
                      for ef, recall in result.evaluations))
    return 0 if result.target_met else 3


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.core.fsck import fsck
    _, layout, _ = load_deployment(args.index)
    report = fsck(layout)
    print(report.summary())
    return 0 if report.clean else 2


def build_parser() -> argparse.ArgumentParser:
    """The dhnsw argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="dhnsw",
        description="d-HNSW: vector search on simulated disaggregated "
                    "memory")
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build and save a deployment")
    build.add_argument("--dataset", default="sift-like",
                       choices=["sift-like", "gist-like", "random"])
    build.add_argument("--num-vectors", type=int, default=5000)
    build.add_argument("--num-queries", type=int, default=100)
    build.add_argument("--num-representatives", type=int, default=None)
    build.add_argument("--nprobe", type=int, default=4)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--out", required=True)
    build.set_defaults(func=_cmd_build)

    info = commands.add_parser("info", help="describe a saved deployment")
    info.add_argument("--index", required=True)
    info.set_defaults(func=_cmd_info)

    query = commands.add_parser("query",
                                help="run the saved query set")
    query.add_argument("--index", required=True)
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--ef", type=int, default=48)
    query.add_argument("--num-queries", type=int, default=None)
    query.add_argument("--scheme", default=Scheme.DHNSW.value,
                       choices=sorted(_SCHEMES))
    query.set_defaults(func=_cmd_query)

    insert = commands.add_parser("insert",
                                 help="stream synthetic insertions")
    insert.add_argument("--index", required=True)
    insert.add_argument("--count", type=int, default=100)
    insert.add_argument("--first-id", type=int, default=10_000_000)
    insert.add_argument("--seed", type=int, default=0)
    insert.add_argument("--save", action="store_true",
                        help="persist the mutated deployment")
    insert.set_defaults(func=_cmd_insert)

    check = commands.add_parser(
        "fsck", help="validate a deployment's remote layout")
    check.add_argument("--index", required=True)
    check.set_defaults(func=_cmd_fsck)

    tune = commands.add_parser(
        "tune", help="auto-tune efSearch for a recall target")
    tune.add_argument("--index", required=True)
    tune.add_argument("--k", type=int, default=10)
    tune.add_argument("--target-recall", type=float, default=0.9)
    tune.add_argument("--ef-max", type=int, default=256)
    tune.set_defaults(func=_cmd_tune)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
