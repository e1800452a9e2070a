"""CLI: build / info / query / insert against a temp deployment."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.layout.serializer import cluster_blob_split
from repro.persist import load_deployment


@pytest.fixture(scope="module")
def built_index(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "dep"
    code = main(["build", "--dataset", "random", "--num-vectors", "800",
                 "--num-queries", "20", "--num-representatives", "6",
                 "--seed", "3", "--out", str(path)])
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--index", "x",
                                       "--scheme", "bogus"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build", "--out", "x",
                                       "--dataset", "laion"])


class TestBuild:
    def test_artifacts_written(self, built_index):
        for name in ("manifest.json", "region.bin", "meta.bin",
                     "queries.fvecs", "ground_truth.ivecs"):
            assert (built_index / name).exists(), name

    def test_build_output_mentions_partitions(self, built_index, capsys):
        main(["info", "--index", str(built_index)])
        out = capsys.readouterr().out
        assert "partitions" in out
        assert "meta-HNSW" in out

    def test_info_splits_the_hot_blobs(self, built_index, capsys):
        """What a miss moves, without running a bench: the hot blobs'
        bytes by section and how many blobs use each id width."""
        main(["info", "--index", str(built_index)])
        lines = dict(line.split(" : ", 1) for line in
                     capsys.readouterr().out.splitlines() if " : " in line)
        total, parts = lines["hot blobs        "].split(" = ")
        kib = [float(part.split()[-2]) for part in parts.split(" / ")]
        assert [part.split()[0] for part in parts.split(" / ")] == [
            "vectors", "graph", "labels"]
        assert abs(sum(kib) - float(total.split()[0])) <= 0.15
        # No neighbour list here is longer than 256, so a blob's width
        # follows from its node count alone.
        _, layout, _ = load_deployment(built_index)
        sizes = [cluster_blob_split(layout.memory_node.read(
            layout.rkey, layout.addr(cluster.blob_offset),
            cluster.blob_length)).vectors // (4 * layout.metadata.dim)
            for cluster in layout.metadata.clusters]
        narrow = sum(size <= 256 for size in sizes)
        assert 0 < narrow < len(sizes) == 6
        assert lines["id widths        "] == (
            f"{narrow} blob(s) at 1 B, {6 - narrow} blob(s) at 2 B")


class TestQuery:
    def test_query_reports_recall_and_breakdown(self, built_index,
                                                capsys):
        code = main(["query", "--index", str(built_index), "--k", "5",
                     "--ef", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recall@5" in out
        assert "round trips/query" in out
        recall = float([line for line in out.splitlines()
                        if "recall@5" in line][0].split(":")[1])
        assert recall >= 0.8

    def test_query_with_scheme(self, built_index, capsys):
        code = main(["query", "--index", str(built_index),
                     "--scheme", "naive-d-hnsw", "--k", "3", "--ef", "16"])
        assert code == 0
        assert "naive-d-hnsw" in capsys.readouterr().out

    def test_num_queries_limits(self, built_index, capsys):
        code = main(["query", "--index", str(built_index),
                     "--num-queries", "5", "--k", "3", "--ef", "8"])
        assert code == 0
        assert "queries            : 5" in capsys.readouterr().out

    def test_missing_index_is_error_not_traceback(self, tmp_path, capsys):
        code = main(["query", "--index", str(tmp_path / "nope")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestInsert:
    def test_insert_and_requery(self, built_index, capsys):
        code = main(["insert", "--index", str(built_index),
                     "--count", "10", "--save"])
        assert code == 0
        out = capsys.readouterr().out
        assert "inserted 10 vectors" in out
        # Re-query the mutated, re-saved deployment.
        assert main(["query", "--index", str(built_index), "--k", "3",
                     "--ef", "16"]) == 0

    def test_insert_without_save_leaves_disk_unchanged(self, built_index):
        before = (built_index / "region.bin").read_bytes()
        main(["insert", "--index", str(built_index), "--count", "3"])
        assert (built_index / "region.bin").read_bytes() == before


class TestFsckCommand:
    def test_clean_deployment_exits_zero(self, built_index, capsys):
        assert main(["fsck", "--index", str(built_index)]) == 0
        assert "CLEAN" in capsys.readouterr().out


class TestTuneCommand:
    def test_reachable_target(self, built_index, capsys):
        code = main(["tune", "--index", str(built_index),
                     "--k", "5", "--target-recall", "0.7",
                     "--ef-max", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chosen efSearch" in out
        assert "met" in out

    def test_unreachable_target_exit_code(self, built_index, capsys):
        code = main(["tune", "--index", str(built_index),
                     "--k", "5", "--target-recall", "1.0",
                     "--ef-max", "1"])
        out = capsys.readouterr().out
        if code == 3:
            assert "NOT met" in out
        else:
            # Tiny corpora can genuinely reach recall 1.0 at ef 1.
            assert code == 0
