import math
import tracemalloc

import numpy as np
import pytest

import boi.index
from boi.core import BoiParams, VectorSet, brute_force_query
from boi.hashing import hash_codes_all, insert_all, make_projections
from boi.index import (
    BoiIndex,
    _ball_plan,
    accumulate,
    multiprobe_lsh_query,
    probe_plan,
    query,
)
from hand_tables import from_record_ids, rows_of_plan


@pytest.fixture(scope="module")
def populated():
    rng = np.random.default_rng(31)
    data = VectorSet(rng.standard_normal((500, 12)).astype(np.float32))
    params = BoiParams(
        num_tables=10, hash_bits=4, initial_probe_count=3, seed=13
    )
    tables = insert_all(make_projections(params, 12), params.hash_bits, data)
    return tables, data


class TestBruteForce:
    def test_scan_holds_one_small_float64_chunk(self):
        rng = np.random.default_rng(4)
        data = VectorSet(rng.standard_normal((100_000, 32)).astype(np.float32))
        q = rng.standard_normal(32).astype(np.float32)
        tracemalloc.start()
        try:
            brute_force_query(data, q, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result, the ids and the selection take 2.3 MiB with a 512 KiB
        # chunk buffer; a 2 MiB temporary per 8192-row chunk took 4.9 MiB
        assert peak < 3.5 * 2**20

    def test_hand_computed(self):
        data = VectorSet(
            np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]], dtype=np.float32)
        )
        res = brute_force_query(data, np.array([0.9, 0.0], dtype=np.float32), 2)
        assert res.ids.tolist() == [1, 0]
        np.testing.assert_allclose(res.distances, [0.1, 0.9], rtol=1e-6)

    def test_k_at_least_n_gives_full_ranking(self):
        rng = np.random.default_rng(1)
        data = VectorSet(rng.standard_normal((20, 4)).astype(np.float32))
        res = brute_force_query(data, rng.standard_normal(4).astype(np.float32), 50)
        assert sorted(res.ids.tolist()) == list(range(20))

    def test_query_in_database(self):
        rng = np.random.default_rng(2)
        data = VectorSet(rng.standard_normal((10, 6)).astype(np.float32))
        res = brute_force_query(data, data.vectors[3], 1)
        assert res.ids[0] == 3 and res.distances[0] == 0.0

    def test_matches_independent_python_oracle(self):
        rng = np.random.default_rng(3)
        data = VectorSet(rng.standard_normal((50, 5)).astype(np.float32))
        for _ in range(10):
            q = rng.standard_normal(5).astype(np.float32)
            oracle = sorted(
                range(50),
                key=lambda i: (
                    math.dist(
                        [float(x) for x in data.vectors[i]],
                        [float(x) for x in q],
                    ),
                    i,
                ),
            )[:7]
            got = brute_force_query(data, q, 7)
            assert got.ids.tolist() == oracle

    def test_dimension_mismatch(self):
        data = VectorSet(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            brute_force_query(data, np.zeros(4, dtype=np.float32), 1)

    def test_empty_dataset(self):
        data = VectorSet(np.empty((0, 0), dtype=np.float32))
        assert len(brute_force_query(data, np.zeros(3, dtype=np.float32), 1)) == 0

    def test_empty_set_of_known_width_rejects_other_widths(self):
        # no records, but 8 values wide: a 3-wide query is refused, as the
        # bucketed queries over the same set refuse it
        data = VectorSet(np.empty((0, 8), dtype=np.float32))
        assert len(brute_force_query(data, np.ones(8, dtype=np.float32), 1)) == 0
        with pytest.raises(ValueError, match="dimension mismatch"):
            brute_force_query(data, np.ones(3, dtype=np.float32), 1)


class TestLshQuery:
    """Plain LSH: multi-probe at radius 0, the query's own bucket only."""

    def test_single_shared_bucket_equals_brute_force(self):
        # one table whose single projection keeps every record on the same
        # side of the hyperplane, so the whole set shares bucket 1
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((30, 6)).astype(np.float32)
        raw[:, 0] = np.abs(raw[:, 0]) + 1.0
        data = VectorSet(raw)
        table = insert_all(
            np.array([[1.0, 0, 0, 0, 0, 0]], dtype=np.float32), 1, data
        )
        q = np.array([2.0, 0.5, 0, 0, 0, 0], dtype=np.float32)
        got = multiprobe_lsh_query(table, data, q, 0, 30, 30)
        exact = brute_force_query(data, q, 30)
        assert np.array_equal(got.ids, exact.ids)
        assert np.array_equal(got.distances, exact.distances)

    def test_no_collision_gives_empty_result(self):
        data = VectorSet(np.array([[1.0, 2.0, -0.5]], dtype=np.float32))
        params = BoiParams(
            num_tables=5, hash_bits=3, initial_probe_count=2, seed=5
        )
        tables = insert_all(make_projections(params, 3), 3, data)
        res = multiprobe_lsh_query(tables, data, -data.vectors[0], 0, 10, 3)
        assert len(res) == 0
        assert res.probe_count == 5

    def test_candidates_match_union_oracle(self, populated):
        tables, data = populated
        rng = np.random.default_rng(6)
        for _ in range(10):
            q = rng.standard_normal(12).astype(np.float32)
            codes = hash_codes_all(tables.sign_filter, q[np.newaxis, :])[0]
            union = set()
            for ti in range(tables.num_tables):
                union |= set(int(i) for i in tables.bucket([ti], [codes[ti]]))
            got = multiprobe_lsh_query(tables, data, q, 0, 500, 500)
            assert set(got.ids.tolist()) == union
            assert got.shortlist_size == len(union)

    def test_shortlist_cap_keeps_most_collisions(self, populated):
        tables, data = populated
        rng = np.random.default_rng(7)
        q = rng.standard_normal(12).astype(np.float32)
        full = multiprobe_lsh_query(tables, data, q, 0, 500, 500)
        capped = multiprobe_lsh_query(tables, data, q, 0, 5, 500)
        assert capped.shortlist_size == min(5, full.shortlist_size)
        assert set(capped.ids.tolist()) <= set(full.ids.tolist())
        # the cap keeps the ids found in the most tables, ties by lower id
        codes = hash_codes_all(tables.sign_filter, q[np.newaxis, :])[0]
        found = tables.bucket(np.arange(tables.num_tables), codes)
        collisions = np.bincount(found, minlength=data.n)
        by_count = sorted(set(found.tolist()), key=lambda i: (-collisions[i], i))
        assert set(capped.ids.tolist()) == set(by_count[:5])


class TestCollisionCount:
    """The shortlist keeps the ids that collide with the query most often,
    ties by lower id, whatever order the tables list them in.

    Three 2-bit tables over four records, whose zero projections hash every
    query to code 3 in every table. Bucket 3 holds [0, 1], [1, 2] and
    [1, 2, 3], so first-seen order is 0, 1, 2, 3, while id 1 collides three
    times, id 2 twice and ids 0 and 3 once each. Table 1 puts id 3 in
    bucket 2, one bit from the query's code.
    """

    @pytest.mark.parametrize(
        "radius, kept",
        [
            (0, [[1], [1, 2], [0, 1, 2], [0, 1, 2, 3]]),
            # radius 1 also probes bucket 2, where id 3 ties id 2
            (1, [[1], [1, 2], [1, 2, 3], [0, 1, 2, 3]]),
            # the whole code space: every id collides in all three tables
            (2, [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]),
        ],
    )
    def test_cap_keeps_the_most_collisions(self, radius, kept):
        members = [[2, 3, 0, 1], [0, 3, 1, 2], [0, 1, 2, 3]]
        offsets = [[0, 2, 2, 2, 4], [0, 1, 1, 2, 4], [0, 1, 1, 1, 4]]
        tables = from_record_ids(np.zeros((6, 2)), offsets, members)
        data = VectorSet(np.array([[0, 0], [1, 0], [2, 0], [3, 0]], np.float32))
        q = np.array([-1.0, -2.0], np.float32)  # nearest to id 0, then 1, 2, 3
        assert hash_codes_all(tables.sign_filter, q[np.newaxis, :]).tolist() == [
            [3, 3, 3]
        ]
        for cap, ids in enumerate(kept, start=1):
            got = multiprobe_lsh_query(tables, data, q, radius, cap, 4)
            assert got.ids.tolist() == ids
            assert got.shortlist_size == cap


class TestMultiprobeLsh:
    def test_full_radius_equals_brute_force(self, populated):
        tables, data = populated
        rng = np.random.default_rng(9)
        q = rng.standard_normal(12).astype(np.float32)
        got = multiprobe_lsh_query(tables, data, q, 4, data.n, data.n)
        exact = brute_force_query(data, q, data.n)
        assert np.array_equal(got.ids, exact.ids)
        assert np.array_equal(got.distances, exact.distances)

    def test_candidate_superset_in_radius(self, populated):
        tables, data = populated
        rng = np.random.default_rng(10)
        for _ in range(100):
            q = rng.standard_normal(12).astype(np.float32)
            narrow = multiprobe_lsh_query(tables, data, q, 0, data.n, data.n)
            wide = multiprobe_lsh_query(tables, data, q, 1, data.n, data.n)
            assert set(narrow.ids.tolist()) <= set(wide.ids.tolist())
            assert wide.probe_count > narrow.probe_count

    @pytest.mark.parametrize("radius", [0, 1])
    def test_pairs_scanned_is_bucket_length(self, populated, radius):
        # every (id, bucket) pair read, repeats across tables included,
        # before the shortlist keeps the ids with the most collisions
        tables, data = populated
        q = np.random.default_rng(radius).standard_normal(12).astype(np.float32)
        codes = hash_codes_all(tables.sign_filter, q[np.newaxis, :])[0]
        masks, dists = probe_plan(tables.bits, (1 << tables.bits) - 1)
        masks = masks[dists <= radius]
        rows = np.repeat(np.arange(tables.num_tables), masks.size)
        scanned = tables.bucket(rows, (codes[:, np.newaxis] ^ masks).ravel()).size
        got = multiprobe_lsh_query(tables, data, q, radius, 5, 3)
        assert got.pairs_scanned == scanned > got.shortlist_size
        assert brute_force_query(data, q, 3).pairs_scanned is None

    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_boi_over_the_whole_ball_answers_like_it(self, populated, radius):
        # boi probing exactly the radius ball of every table and re-ranking
        # the whole union weighs its votes differently but re-ranks the
        # same records, from the same buckets
        tables, data = populated
        params = BoiParams(
            num_tables=10, hash_bits=4, schedule="fixed", initial_probe_count=4,
            probe_radius=radius, strict_radius=True, shortlist_size=data.n,
            seed=13,
        )
        index = BoiIndex(params, tables, data)
        rng = np.random.default_rng(15)
        for _ in range(20):
            q = rng.standard_normal(12).astype(np.float32)
            got = query(index, q, 20)
            want = multiprobe_lsh_query(tables, data, q, radius, data.n, 20)
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.distances.tobytes() == want.distances.tobytes()
            assert (got.probe_count, got.pairs_scanned, got.shortlist_size) == (
                want.probe_count, want.pairs_scanned, want.shortlist_size
            )

    def test_ball_plan_is_cached_per_ball_and_read_only(self, populated, monkeypatch):
        tables, data = populated
        plan = _ball_plan(4, 10, 1)  # the 4-bit codes of 10 tables
        assert _ball_plan(4, 10, 1) is plan
        masks, units, budgets = plan.masks, plan.units, plan.budgets
        assert masks.tolist() == probe_plan(4, 4)[0].tolist()
        assert units.tolist() == [1] * 5 and budgets.tolist() == [4] * 10
        # a ball probes whole shells: no row is reordered
        assert not plan.shells.any()
        for arr in (masks, units, budgets, plan.shells):
            assert not arr.flags.writeable
        # every radius of b or more is the whole code space: one entry
        plans = []

        def spy(*key):
            plans.append(_ball_plan(*key))
            return plans[-1]

        monkeypatch.setattr(boi.index, "_ball_plan", spy)
        q = data.vectors[0]
        for radius in (tables.bits, tables.bits + 5):
            multiprobe_lsh_query(tables, data, q, radius, 5, 3)
        assert plans[0] is plans[1]
        assert sorted(plans[0].masks.tolist()) == list(range(16))

    @pytest.mark.parametrize("radius", [0, 1, 2, 4])
    def test_ball_rows_keep_plan_order_whatever_the_margins(self, radius):
        # a ball probes whole shells, so no margin reorders its rows: they
        # are the codes XOR the plan's masks, as before margins ordered any
        # shell, and so are the baselines' answers
        plan = _ball_plan(4, 3, radius)
        codes = np.array([0, 5, 15], np.uint16)
        rng = np.random.default_rng(radius)
        for dots in (
            rng.standard_normal(12),
            np.full(12, np.inf),
            np.tile([np.nan, -3e38, 1e-30, 0.0], 3),
        ):
            rows = rows_of_plan(plan, codes, dots)
            assert rows.tolist() == (codes[:, np.newaxis] ^ plan.masks).tolist()

    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_answers_match_a_collision_count_oracle(self, populated, radius):
        # votes counted from the records' own codes: record r gains 1 in
        # each table where its code lies within ``radius`` of the query's
        tables, data = populated
        record_codes = hash_codes_all(tables.sign_filter, data.vectors)
        rng = np.random.default_rng(40 + radius)
        for _ in range(10):
            q = rng.standard_normal(12).astype(np.float32)
            codes = hash_codes_all(tables.sign_filter, q[np.newaxis, :])[0]
            flips = np.vectorize(lambda c: bin(c).count("1"))(record_codes ^ codes)
            votes = (flips <= radius).sum(axis=1)
            touched = sorted(np.flatnonzero(votes), key=lambda r: (-votes[r], r))[:30]
            exact = brute_force_query(VectorSet(data.vectors[touched]), q, 5)
            want = np.array(touched)[exact.ids]
            got = multiprobe_lsh_query(tables, data, q, radius, 30, 5)
            assert got.ids.tolist() == want.tolist()
            assert got.distances.tobytes() == exact.distances.tobytes()

    def test_query_derives_no_plan(self, populated, monkeypatch):
        tables, data = populated
        q = data.vectors[1]
        want = multiprobe_lsh_query(tables, data, q, 1, 20, 5)

        def refuse(*args):
            raise AssertionError("a query derived its probe plan")

        monkeypatch.setattr(boi.index, "probe_plan", refuse)
        monkeypatch.setattr(boi.index, "neighbor_budget", refuse)
        got = multiprobe_lsh_query(tables, data, q, 1, 20, 5)
        assert got.ids.tolist() == want.ids.tolist()
        assert got.pairs_scanned == want.pairs_scanned

    def test_probe_count_is_ball_size(self, populated):
        tables, data = populated
        rng = np.random.default_rng(11)
        q = rng.standard_normal(12).astype(np.float32)
        res = multiprobe_lsh_query(tables, data, q, 1, 10, 10)
        assert res.probe_count == tables.num_tables * (1 + 4)  # 4-bit codes

    @pytest.mark.parametrize("rows, cols", [(10, 0), (-10, 0), (0, 1)])
    def test_rejects_dataset_the_tables_do_not_index(self, populated, rows, cols):
        tables, data = populated
        rng = np.random.default_rng(12)
        other = VectorSet(
            rng.standard_normal((data.n + rows, data.dim + cols)).astype(np.float32)
        )
        with pytest.raises(ValueError, match="does not match"):
            multiprobe_lsh_query(tables, other, data.vectors[0], 1, 10, 5)

    @pytest.mark.parametrize("radius", [0, 1])
    def test_float64_query_ranks_as_its_float32_cast(self, populated, radius):
        # the re-rank measures from the validated float32 query, never from
        # the caller's float64 values
        tables, data = populated
        rng = np.random.default_rng(14)
        for _ in range(10):
            q64 = rng.standard_normal(12)
            q32 = q64.astype(np.float32)
            assert not np.array_equal(q64, q32)
            got = multiprobe_lsh_query(tables, data, q64, radius, 50, 5)
            want = multiprobe_lsh_query(tables, data, q32, radius, 50, 5)
            assert len(want) == 5
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.distances, want.distances)

    def test_rejects_negative_radius(self, populated):
        tables, data = populated
        with pytest.raises(ValueError):
            multiprobe_lsh_query(
                tables, data, np.zeros(12, dtype=np.float32), -1, 10, 1
            )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", ["query", "accumulate", "lsh", "multiprobe", "brute"])
def test_non_finite_query_rejected(populated, method, bad):
    tables, data = populated
    index = BoiIndex(
        BoiParams(num_tables=10, hash_bits=4, initial_probe_count=3, seed=13),
        tables,
        data,
    )
    q = np.zeros(data.dim, dtype=np.float32)
    q[3] = bad
    calls = {
        "query": lambda: query(index, q, 5),
        "accumulate": lambda: accumulate(index, q),
        "lsh": lambda: multiprobe_lsh_query(tables, data, q, 0, 10, 5),
        "multiprobe": lambda: multiprobe_lsh_query(tables, data, q, 1, 10, 5),
        "brute": lambda: brute_force_query(data, q, 5),
    }
    with pytest.raises(ValueError, match="finite"):
        calls[method]()


@pytest.mark.parametrize("entry", ["query", "brute", "vector-set"])
def test_a_float64_past_float32s_range_is_named(populated, entry):
    # 1e39 is finite as a float64 but casts to inf as a float32: the cast
    # must not warn of the overflow, which the suite's filterwarnings would
    # raise, and the ValueError names float32's range rather than calling
    # a finite input non-finite
    tables, data = populated
    index = BoiIndex(BoiParams(num_tables=10, hash_bits=4, seed=13), tables, data)
    q = np.zeros(data.dim, np.float64)
    q[3] = 1e39
    calls = {
        "query": lambda: query(index, q, 5),
        "brute": lambda: brute_force_query(data, q, 5),
        "vector-set": lambda: VectorSet(np.tile(q, (2, 1))),
    }
    with pytest.raises(ValueError, match=r"within float32's range, \|x\| <= 3\.4028235e\+38"):
        calls[entry]()
