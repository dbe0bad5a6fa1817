import csv
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boi.cli import main
from boi.data_io import read_fvecs, read_ivecs, write_ivecs


def run_gen(tmp_path, n=600, extra=()):
    out = tmp_path / "data"
    out.mkdir(parents=True, exist_ok=True)
    rc = main(
        [
            "gen", "--out", str(out), "--n", str(n), "--dim", "16",
            "--clusters", "8", "--num-queries", "12", "--gt-k", "5",
            "--seed", "21", *extra,
        ]
    )
    assert rc == 0
    return out


@pytest.fixture()
def dataset_dir(tmp_path):
    return run_gen(tmp_path)


def build_small(tmp_path, dataset_dir, name="idx.boix", extra=()):
    index_path = tmp_path / name
    rc = main(
        [
            "build", "--dataset", str(dataset_dir / "base.fvecs"),
            "--index", str(index_path), "--L", "12", "--bits", "5",
            "--gamma0", "4", "--epsilon", "64", "--seed", "77", *extra,
        ]
    )
    assert rc == 0
    return index_path


class TestGen:
    def test_writes_three_consistent_files(self, dataset_dir):
        base = read_fvecs(dataset_dir / "base.fvecs")
        queries = read_fvecs(dataset_dir / "queries.fvecs")
        gt = read_ivecs(dataset_dir / "groundtruth.ivecs")
        assert base.n == 600 and base.dim == 16
        assert queries.n == 12 and queries.dim == 16
        assert gt.shape == (12, 5)
        assert gt.min() >= 0 and gt.max() < 600

    def test_same_seed_same_files(self, tmp_path):
        a = run_gen(tmp_path / "a")
        b = run_gen(tmp_path / "b")
        for name in ("base.fvecs", "queries.fvecs", "groundtruth.ivecs"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_output_dir_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "--out", str(tmp_path / "absent")])


class TestBuild:
    def test_rebuild_is_bit_identical(self, tmp_path, dataset_dir):
        p1 = build_small(tmp_path, dataset_dir, "a.boix")
        p2 = build_small(tmp_path, dataset_dir, "b.boix")
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_bits_out_of_range(self, tmp_path, dataset_dir):
        rc = main(
            [
                "build", "--dataset", str(dataset_dir / "base.fvecs"),
                "--index", str(tmp_path / "x.boix"), "--bits", "31",
            ]
        )
        assert rc != 0

    def test_rejects_bits_past_16(self, tmp_path, dataset_dir, caplog):
        rc = main(
            [
                "build", "--dataset", str(dataset_dir / "base.fvecs"),
                "--index", str(tmp_path / "x.boix"), "--bits", "17",
            ]
        )
        assert rc == 1
        assert "hash_bits must be in [1, 16]" in caplog.text
        assert not (tmp_path / "x.boix").exists()

    def test_rejects_shortlist_size_past_u32(self, tmp_path, dataset_dir, caplog):
        # the snapshot header stores epsilon as a u32
        rc = main(
            [
                "build", "--dataset", str(dataset_dir / "base.fvecs"),
                "--index", str(tmp_path / "x.boix"), "--epsilon", str(2**32),
            ]
        )
        assert rc == 1
        assert "shortlist_size must be below 2**32" in caplog.text
        assert not (tmp_path / "x.boix").exists()

    def test_rejects_an_empty_fvecs_file(self, tmp_path, caplog):
        # an empty file reads as a (0, 0) set, whose width is unknown
        empty = tmp_path / "empty.fvecs"
        empty.write_bytes(b"")
        rc = main(["build", "--dataset", str(empty), "--index", str(tmp_path / "x.boix")])
        assert rc == 1
        assert "no known width" in caplog.text
        assert not (tmp_path / "x.boix").exists()

    def test_missing_dataset_fails(self, tmp_path):
        rc = main(
            [
                "build", "--dataset", str(tmp_path / "nope.fvecs"),
                "--index", str(tmp_path / "x.boix"),
            ]
        )
        assert rc != 0


class TestQueryCommand:
    def test_writes_padded_ivecs(self, tmp_path, dataset_dir):
        index_path = build_small(tmp_path, dataset_dir)
        out = tmp_path / "results.ivecs"
        rc = main(
            [
                "query", "--dataset", str(dataset_dir / "base.fvecs"),
                "--queries", str(dataset_dir / "queries.fvecs"),
                "--index", str(index_path), "--method", "boi",
                "--k", "5", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = read_ivecs(out)
        assert rows.shape == (12, 5)
        assert rows[:, 0].min() >= 0  # every query found something

    def test_brute_needs_no_index(self, tmp_path, dataset_dir):
        out = tmp_path / "results.ivecs"
        rc = main(
            [
                "query", "--dataset", str(dataset_dir / "base.fvecs"),
                "--queries", str(dataset_dir / "queries.fvecs"),
                "--method", "brute", "--k", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        gt = read_ivecs(dataset_dir / "groundtruth.ivecs")
        assert np.array_equal(read_ivecs(out), gt[:, :3])

    def test_method_without_index_fails(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "query", "--dataset", str(dataset_dir / "base.fvecs"),
                    "--queries", str(dataset_dir / "queries.fvecs"),
                    "--method", "lsh", "--out", str(tmp_path / "r.ivecs"),
                ]
            )


class TestBench:
    def run_bench(self, tmp_path, dataset_dir, index_path, method, extra=()):
        report_path = tmp_path / f"{method}.json"
        args = [
            "bench", "--dataset", str(dataset_dir / "base.fvecs"),
            "--queries", str(dataset_dir / "queries.fvecs"),
            "--groundtruth", str(dataset_dir / "groundtruth.ivecs"),
            "--method", method, "--k", "5", "--repetitions", "1",
            "--out", str(report_path), *extra,
        ]
        if index_path is not None:
            args += ["--index", str(index_path)]
        rc = main(args)
        assert rc == 0
        return json.loads(report_path.read_text())

    def test_brute_force_achieves_perfect_map(self, tmp_path, dataset_dir):
        report = self.run_bench(tmp_path, dataset_dir, None, "brute")
        assert report["map"] == 1.0
        assert report["recall_at_k"]["1"] == 1.0
        assert report["method"] == "brute"
        assert report["memory_estimate"]["vectors_bytes"] == 600 * 16 * 4
        # brute force builds no index and sums no votes
        assert report["memory_estimate"]["index_bytes"] == 0
        assert report["memory_estimate"]["accumulator_bytes"] == 0
        assert report["memory_estimate"]["total_bytes"] == 600 * 16 * 4

    def test_all_methods_produce_reports(self, tmp_path, dataset_dir):
        index_path = build_small(tmp_path, dataset_dir)
        for method in ("boi", "boi_strict", "lsh", "multiprobe"):
            report = self.run_bench(tmp_path, dataset_dir, index_path, method)
            assert report["num_queries"] == 12
            assert 0.0 <= report["map"] <= 1.0
            assert report["mean_probe_count"] > 0

    def test_larger_shortlist_does_not_hurt_recall(self, tmp_path, dataset_dir):
        index_path = build_small(tmp_path, dataset_dir)
        small = self.run_bench(
            tmp_path, dataset_dir, index_path, "boi", extra=("--epsilon", "8")
        )
        big = self.run_bench(
            tmp_path, dataset_dir, index_path, "boi", extra=("--epsilon", "600")
        )
        assert big["recall_at_k"]["1"] >= small["recall_at_k"]["1"]

    def test_per_query_csv(self, tmp_path, dataset_dir):
        index_path = build_small(tmp_path, dataset_dir)
        csv_path = tmp_path / "rows.csv"
        self.run_bench(
            tmp_path, dataset_dir, index_path, "boi",
            extra=("--csv", str(csv_path)),
        )
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 12
        assert lines[0].startswith("query_index,time_ms,probe_count")

    def test_csv_columns_average_to_the_report(self, tmp_path, dataset_dir):
        # map and recall@1 are the means of the per-query values the CSV lists
        index_path = build_small(tmp_path, dataset_dir)
        csv_path = tmp_path / "rows.csv"
        report = self.run_bench(
            tmp_path, dataset_dir, index_path, "boi",
            extra=("--epsilon", "8", "--csv", str(csv_path)),
        )
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        aps = [float(row["ap"]) for row in rows]
        hits = [int(row["recall_at_1"]) for row in rows]
        assert len(rows) == 12 and 0.0 < report["map"] < 1.0
        assert np.mean(aps) == pytest.approx(report["map"], abs=1e-6)
        assert np.mean(hits) == report["recall_at_k"]["1"]

    def test_structural_override_rejected(self, tmp_path, dataset_dir):
        index_path = build_small(tmp_path, dataset_dir)
        with pytest.raises(SystemExit):
            self.run_bench(
                tmp_path, dataset_dir, index_path, "boi", extra=("--L", "99")
            )


class TestEval:
    def test_eval_matches_bench_map(self, tmp_path, dataset_dir):
        out = tmp_path / "results.ivecs"
        main(
            [
                "query", "--dataset", str(dataset_dir / "base.fvecs"),
                "--queries", str(dataset_dir / "queries.fvecs"),
                "--method", "brute", "--k", "5", "--out", str(out),
            ]
        )
        report_path = tmp_path / "eval.json"
        rc = main(
            [
                "eval", "--results", str(out),
                "--groundtruth", str(dataset_dir / "groundtruth.ivecs"),
                "--out", str(report_path),
            ]
        )
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert payload["map"] == 1.0
        assert payload["recall_at_k"]["1"] == 1.0

    def test_eval_of_boi_rankings_matches_bench(self, tmp_path, dataset_dir):
        # the rankings boi query writes score what boi bench reports
        index_path = build_small(tmp_path, dataset_dir)
        data = [
            "--dataset", str(dataset_dir / "base.fvecs"),
            "--queries", str(dataset_dir / "queries.fvecs"),
            "--index", str(index_path), "--method", "boi", "--k", "5",
            "--epsilon", "8",
        ]
        gt = str(dataset_dir / "groundtruth.ivecs")
        bench_path, out, eval_path = (
            tmp_path / "bench.json", tmp_path / "results.ivecs", tmp_path / "eval.json"
        )
        assert main(["bench", *data, "--groundtruth", gt, "--repetitions", "1",
                     "--out", str(bench_path)]) == 0
        assert main(["query", *data, "--out", str(out)]) == 0
        assert main(["eval", "--results", str(out), "--groundtruth", gt,
                     "--out", str(eval_path)]) == 0
        bench = json.loads(bench_path.read_text())
        payload = json.loads(eval_path.read_text())
        assert 0.0 < bench["map"] < 1.0
        assert payload["map"] == bench["map"]
        assert payload["recall_at_k"] == bench["recall_at_k"]

    def test_rejects_a_ranking_that_repeats_an_id(self, tmp_path, caplog):
        # scored as is, [3, 3, 3] against [3, 4, 9] would have AP 1.0, not 1/3
        write_ivecs(tmp_path / "results.ivecs", np.array([[3, 4, 9], [3, 3, 3]]))
        write_ivecs(tmp_path / "gt.ivecs", np.array([[3, 4, 9], [3, 4, 9]]))
        rc = main(
            [
                "eval", "--results", str(tmp_path / "results.ivecs"),
                "--groundtruth", str(tmp_path / "gt.ivecs"),
                "--out", str(tmp_path / "eval.json"),
            ]
        )
        assert rc == 1
        assert "query 1: ranking repeats a record id" in caplog.text
        assert not (tmp_path / "eval.json").exists()

    def eval_rows(self, tmp_path, rows):
        write_ivecs(tmp_path / "results.ivecs", np.array(rows))
        write_ivecs(tmp_path / "gt.ivecs", np.array([[5, 7, 9]] * len(rows)))
        return main(
            [
                "eval", "--results", str(tmp_path / "results.ivecs"),
                "--groundtruth", str(tmp_path / "gt.ivecs"),
                "--out", str(tmp_path / "eval.json"),
            ]
        )

    def test_strips_only_the_trailing_padding(self, tmp_path):
        # a short answer padded as ``boi query`` writes it: [5, 7] scores
        # AP (1 + 1) / 3 and recall@1 1
        assert self.eval_rows(tmp_path, [[5, 7, -1], [-1, -1, -1]]) == 0
        payload = json.loads((tmp_path / "eval.json").read_text())
        assert payload["map"] == pytest.approx((2 / 3 + 0) / 2)
        assert payload["recall_at_k"]["1"] == 0.5

    def test_rejects_a_minus_one_before_an_id(self, tmp_path, caplog):
        # dropping the -1 would score [5, 7] in place of a malformed row
        assert self.eval_rows(tmp_path, [[5, 7, 9], [5, -1, 7]]) == 1
        assert "query 1: ranking holds a negative id" in caplog.text
        assert not (tmp_path / "eval.json").exists()


FUZZ_FILES = (
    "base.fvecs", "queries.fvecs", "groundtruth.ivecs", "idx.boix", "results.ivecs"
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = run_gen(root, n=200)
    for name in ("base.fvecs", "queries.fvecs", "groundtruth.ivecs"):
        shutil.move(data / name, root / name)
    build_small(root, root)
    rc = main(
        [
            "query", "--dataset", str(root / "base.fvecs"),
            "--queries", str(root / "queries.fvecs"),
            "--method", "brute", "--k", "5", "--out", str(root / "results.ivecs"),
        ]
    )
    assert rc == 0
    return root


def fuzz_commands(work: Path) -> list[list[str]]:
    base, queries = str(work / "base.fvecs"), str(work / "queries.fvecs")
    gt, index = str(work / "groundtruth.ivecs"), str(work / "idx.boix")
    return [
        [
            "query", "--dataset", base, "--queries", queries, "--index", index,
            "--k", "5", "--out", str(work / "out.ivecs"),
        ],
        [
            "bench", "--dataset", base, "--queries", queries, "--groundtruth", gt,
            "--index", index, "--k", "5", "--repetitions", "1",
            "--out", str(work / "report.json"),
        ],
        [
            "eval", "--results", str(work / "results.ivecs"), "--groundtruth", gt,
            "--out", str(work / "eval.json"),
        ],
        [
            "build", "--dataset", base, "--index", str(work / "rebuilt.boix"),
            "--L", "4", "--bits", "4", "--gamma0", "3",
        ],
    ]


@given(
    name=st.sampled_from(FUZZ_FILES),
    kind=st.sampled_from(["truncate", "flip", "overwrite"]),
    position=st.integers(0, 2**31),
    value=st.integers(0, 255),
)
@settings(max_examples=25, deadline=None)
def test_corrupt_input_files_exit_cleanly(fuzz_dir, name, kind, position, value):
    # every command returns 0 or 1 or exits through SystemExit, whatever
    # one damaged byte does to its input; nothing else may escape main
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for f in FUZZ_FILES:
            shutil.copy(fuzz_dir / f, work / f)
        data = bytearray((work / name).read_bytes())
        at = position % len(data)
        if kind == "truncate":
            del data[at:]
        elif kind == "flip":
            data[at] ^= 1 << (value % 8)
        else:
            data[at] = value
        (work / name).write_bytes(bytes(data))
        for argv in fuzz_commands(work):
            try:
                rc = main(argv)
            except SystemExit:
                continue
            assert rc in (0, 1)
