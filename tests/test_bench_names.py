"""The library names the benchmark (``bench/run.py``) reaches by name.

The benchmark times its stages by patching module globals and calls some
stages one by one, so a rename or a call that bypasses one of these names
silently drops a span. These tests pin each name and each call route.
"""

import numpy as np
import pytest

import boi
import boi.core
import boi.hashing
import boi.index

K = 5


@pytest.fixture(scope="module")
def index():
    rng = np.random.default_rng(8)
    data = boi.VectorSet(rng.standard_normal((300, 12)).astype(np.float32))
    params = boi.BoiParams(num_tables=6, hash_bits=5, shortlist_size=40, seed=2)
    return boi.build_index(data, params)


def count_calls(monkeypatch, module, name: str, calls: dict) -> None:
    """Patch ``module.name`` to count its calls into ``calls[name]``."""
    original = getattr(module, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("stage", ["query", "accumulate"])
def test_a_query_hashes_and_builds_its_probe_rows_through_the_index_globals(
    index, monkeypatch, stage
):
    q = index.dataset.vectors[3]
    calls = {}
    for name in ("hash_codes_all", "neighbor_codes_with_distance"):
        count_calls(monkeypatch, boi.index, name, calls)
    if stage == "query":
        boi.query(index, q, K, 3)
    else:
        boi.accumulate(index, q, 3)
    assert calls == {"hash_codes_all": 1, "neighbor_codes_with_distance": 1}


def test_the_build_inserts_and_hashes_through_the_patched_globals(index, monkeypatch):
    calls = {}
    count_calls(monkeypatch, boi.index, "insert_all", calls)
    count_calls(monkeypatch, boi.hashing, "hash_codes_all", calls)
    boi.build_index(index.dataset, index.params)
    assert calls == {"insert_all": 1, "hash_codes_all": 1}


def test_the_stages_called_one_by_one_answer_as_the_query_does(index):
    q = index.dataset.vectors[7]
    eps = index.params.shortlist_size
    weights = boi.accumulate(index, q, 7)
    candidates = boi.shortlist(weights, eps)
    distances = boi.pairwise_distances(index.dataset.vectors[candidates], q)
    ids, _ = boi.core.rank_by_distance(candidates, distances, K)
    assert ids.tolist() == boi.query(index, q, K, 7).ids.tolist()


def test_a_bucket_lists_its_record_ids(index):
    tables = index.tables
    codes = boi.hashing.hash_codes_all(tables.sign_filter, index.dataset.vectors[:1])
    code = int(codes[0, 0])
    found = boi.hashing.ProjectionTable.bucket(tables, [0], [code])
    assert 0 in found.tolist()
    assert len(found) == tables.offsets[0, code + 1] - tables.offsets[0, code]


def test_the_baselines_answer_as_the_benchmark_calls_them(index):
    # the benchmark runs plain LSH as multi-probe LSH at radius 0 while
    # the package has no ``lsh_query``, and calls both baselines positionally
    assert not hasattr(boi, "lsh_query")
    data, q = index.dataset, index.dataset.vectors[11]
    eps = index.params.shortlist_size
    lsh = boi.multiprobe_lsh_query(index.tables, data, q, 0, eps, K)
    assert lsh.probe_count == index.tables.num_tables
    assert lsh.ids[0] == 11 and len(lsh) == K
    exact = boi.brute_force_query(data, q, K)
    assert exact.ids[0] == 11 and len(exact) == K
    assert exact.probe_count is None
