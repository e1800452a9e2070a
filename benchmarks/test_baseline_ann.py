"""§2.1's index-family claim: graphs beat trees/hashing/quantization.

"Traditional methods like KD-trees and LSH struggle with scalability and
search accuracy in high-dimensional spaces, leading to the development
of graph-based indexing techniques."  This harness builds all four index
families over the same SIFT-like corpus and measures the *distance
evaluations per query* each needs to reach its operating recall — the
hardware-independent cost that justifies HNSW as d-HNSW's substrate.
"""

from __future__ import annotations

from repro.baselines import IvfFlatIndex, KdTreeIndex, LshIndex, VamanaIndex
from repro.hnsw import HnswIndex, HnswParams

from .conftest import bench_scale, emit_table


def run_family(name, build, search, queries, truth):
    index = build()
    index.reset_compute_counter()
    hits = 0
    for row, query in enumerate(queries):
        labels, _ = search(index, query)
        hits += len(set(labels.tolist()) & set(truth[row].tolist()))
    evals = index.reset_compute_counter() / len(queries)
    recall = hits / (len(queries) * 10)
    return name, recall, evals


def test_baseline_ann_families(sift_world, benchmark):
    # Reuse the bench corpus but down-sample for the slower baselines.
    corpus_size, _ = bench_scale(4000, 0)
    data = sift_world.dataset.vectors[:corpus_size]
    queries = sift_world.dataset.queries[:100]
    from repro.datasets import exact_knn
    truth = exact_knn(data, queries, 10)

    rows_data = []
    rows_data.append(run_family(
        "hnsw",
        lambda: _built_hnsw(data),
        lambda index, query: index.search(query, 10, ef=48),
        queries, truth))
    rows_data.append(run_family(
        "vamana",
        lambda: _built_vamana(data),
        lambda index, query: index.search(query, 10, ef=48),
        queries, truth))
    rows_data.append(run_family(
        "ivf-flat",
        lambda: _built_ivf(data),
        lambda index, query: index.search(query, 10, nprobe=8),
        queries, truth))
    rows_data.append(run_family(
        "kd-tree(64 leaves)",
        lambda: _built_kdtree(data),
        lambda index, query: index.search(query, 10, max_leaves=64),
        queries, truth))
    rows_data.append(run_family(
        "lsh",
        lambda: _built_lsh(data),
        lambda index, query: index.search(query, 10),
        queries, truth))

    header = f"{'family':<20} {'recall@10':>10} {'dists_per_query':>16}"
    rows = [f"{name:<20} {recall:>10.3f} {evals:>16.1f}"
            for name, recall, evals in rows_data]
    emit_table("baseline_ann_families", header, rows)

    by_name = {name: (recall, evals) for name, recall, evals in rows_data}
    hnsw_recall, hnsw_evals = by_name["hnsw"]
    # Both graph indexes reach high recall ...
    assert hnsw_recall >= 0.85
    assert by_name["vamana"][0] >= 0.85
    # ... and at 128 dimensions every non-graph family either recalls
    # less or pays more distance evaluations to compete.
    for name, (recall, evals) in by_name.items():
        if name in ("hnsw", "vamana"):
            continue
        assert recall <= hnsw_recall + 0.02 or evals > hnsw_evals, (
            f"{name} dominated HNSW: recall {recall} vs {hnsw_recall}, "
            f"evals {evals} vs {hnsw_evals}")
    # The specific §2.1 claim is about trees/hashing at high dimension:
    for name in ("kd-tree(64 leaves)", "lsh"):
        recall, evals = by_name[name]
        assert recall < hnsw_recall or evals > 3 * hnsw_evals

    index = _built_hnsw(data)
    benchmark.pedantic(lambda: index.search(queries[0], 10, ef=48),
                       rounds=1, iterations=1)
    benchmark.extra_info["families"] = {
        name: {"recall": recall, "evals": evals}
        for name, recall, evals in rows_data}


def _built_hnsw(data):
    index = HnswIndex(data.shape[1],
                      HnswParams(m=16, ef_construction=100, seed=0))
    index.add(data)
    return index


def _built_vamana(data):
    # Degree bound matched to HNSW's level-0 bound (2m = 32): at r=16 the
    # flat graph loses navigability between the corpus's 100 clusters once
    # it holds 4000 vectors (recall@10 0.36; 1.00 at the smoke scale).
    index = VamanaIndex(data.shape[1], r=32, alpha=1.2,
                        ef_construction=64, seed=0)
    index.build(data)
    return index


def _built_ivf(data):
    index = IvfFlatIndex(data.shape[1],
                         num_lists=max(8, data.shape[0] // 100), seed=0)
    index.train(data)
    return index


def _built_kdtree(data):
    index = KdTreeIndex(data.shape[1])
    index.build(data)
    return index


def _built_lsh(data):
    index = LshIndex(data.shape[1], num_tables=10, num_bits=14, seed=0)
    index.add_batch(data)
    return index
