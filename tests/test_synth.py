import hashlib
import math

import numpy as np
import pytest

from boi import synth
from boi.cli import main
from boi.core import BoiParams
from boi.index import build_index, query
from boi.synth import SynthSpec, generate


def test_same_spec_is_identical():
    spec = SynthSpec(n=400, dim=12, num_queries=20, seed=123, gt_k=5)
    d1, q1, g1 = generate(spec)
    d2, q2, g2 = generate(spec)
    assert np.array_equal(d1.vectors, d2.vectors)
    assert np.array_equal(q1.vectors, q2.vectors)
    assert np.array_equal(g1.neighbors, g2.neighbors)


def test_different_seed_differs():
    a = generate(SynthSpec(n=100, dim=4, num_queries=2, seed=0))[0]
    b = generate(SynthSpec(n=100, dim=4, num_queries=2, seed=1))[0]
    assert not np.array_equal(a.vectors, b.vectors)


def test_ground_truth_matches_exhaustive_scan():
    db, queries, gt = generate(
        SynthSpec(n=150, dim=6, num_queries=10, seed=7, gt_k=4)
    )
    for qi in range(queries.n):
        q = [float(x) for x in queries.vectors[qi]]
        oracle = sorted(
            range(db.n),
            key=lambda i: (
                math.dist([float(x) for x in db.vectors[i]], q),
                i,
            ),
        )[:4]
        assert gt.neighbors[qi].tolist() == oracle


def test_queries_are_jittered_database_points():
    spec = SynthSpec(n=200, dim=8, num_queries=15, seed=3)
    db, queries, gt = generate(spec)
    for qi in range(queries.n):
        nn = gt.true_nn(qi)
        gap = np.linalg.norm(
            queries.vectors[qi].astype(np.float64)
            - db.vectors[nn].astype(np.float64)
        )
        assert gap < 10 * spec.jitter * math.sqrt(spec.dim)


def test_degenerate_single_cluster_still_recalls():
    # a vanishing spread collapses every point to its cluster center in
    # float32; ties resolve by id, so ground truth and any method agree
    spec = SynthSpec(
        n=100, dim=8, num_clusters=1, cluster_std=1e-12, num_queries=10, seed=9
    )
    db, queries, gt = generate(spec)
    assert np.all(gt.neighbors[:, 0] == 0)
    params = BoiParams(
        num_tables=5, hash_bits=3, initial_probe_count=2, shortlist_size=100, seed=2
    )
    index = build_index(db, params)
    hits = [
        query(index, queries.vectors[qi], 1, query_index=qi).ids[0]
        == gt.true_nn(qi)
        for qi in range(queries.n)
    ]
    assert np.mean(hits) == 1.0


def test_shapes_and_dtypes():
    db, queries, gt = generate(SynthSpec(n=64, dim=5, num_queries=3, seed=1, gt_k=2))
    assert db.vectors.shape == (64, 5) and db.vectors.dtype == np.float32
    assert queries.vectors.shape == (3, 5)
    assert gt.neighbors.shape == (3, 2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 4, "num_clusters": 5},
        {"cluster_std": 0.0},
        {"num_queries": -1},
        {"gt_k": 0},
        {"dim": 0},
        {"query_jitter": -0.5},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SynthSpec(**{"n": 10, **kwargs})


def test_the_row_chunk_changes_no_value(monkeypatch):
    # the base is drawn in row chunks; the generator gives the same normals
    # in chunks as in one draw and leaves the same state, so a chunk of 7
    # rows (a last one of 2) makes the arrays the default chunk makes
    spec = SynthSpec(n=100, dim=5, num_clusters=3, num_queries=9, seed=4, gt_k=3)
    want = generate(spec)
    monkeypatch.setattr(synth, "_ROW_CHUNK", 7)
    got = generate(spec)
    for a, b in zip(want[:2], got[:2]):
        assert a.vectors.dtype == b.vectors.dtype == np.float32
        assert a.vectors.tobytes() == b.vectors.tobytes()
    assert want[2].neighbors.tobytes() == got[2].neighbors.tobytes()


def test_gen_writes_the_files_it_wrote_in_one_draw(tmp_path):
    # sha256 of the three files of a spec of three row chunks, the last one
    # partial, as written when the base was drawn and cast in one float64
    # array: drawing in chunks changed no byte
    assert main([
        "gen", "--out", str(tmp_path), "--n", "20000", "--dim", "12", "--clusters", "5",
        "--num-queries", "7", "--seed", "9", "--gt-k", "4",
    ]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("base.fvecs", "queries.fvecs", "groundtruth.ivecs")
    }
    assert digests == {
        "base.fvecs": "87ee60d8d0c2eb3694b5656603be26a747bf7e12f924d084fa22bc55be9e9812",
        "queries.fvecs": "356ce40931e1ce8043dc1a43a3143b78043db4daa2c468c6719d050d4be08560",
        "groundtruth.ivecs": "ec8ee4bda33b88db35ace6cd5f12b3f2db4a9eccf4c3168a8afdbbacbec3eb1d",
    }
