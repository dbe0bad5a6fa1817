import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boi
from boi.core import (
    SCHEDULE_KINDS,
    BoiParams,
    VectorSet,
    brute_force_query,
    pairwise_distances,
    rank_by_distance,
)
from boi.data_io import load_index, save_index
from boi.hashing import ProjectionTable, hash_codes_all, insert_all
from boi.index import (
    BoiIndex,
    _accumulate,
    _bound_plan,
    accumulate,
    build_index,
    build_schedule,
    multiprobe_lsh_query,
    neighbor_budget,
    probe_plan,
    query,
    shortlist,
    weight,
)
from hand_tables import dense_offsets, directory, from_record_ids
from probe_rows import margin_rows


class TestWeight:
    def test_center_bucket(self):
        assert weight(0, 1) == 1.0

    def test_one_bit_away(self):
        assert weight(1, 1) == 0.5

    def test_beyond_radius_is_zero(self):
        assert weight(2, 1) == 0.0

    def test_exact_values_small_grid(self):
        for radius in range(5):
            for h in range(17):
                expected = 2.0 ** -h if h <= radius else 0.0
                assert weight(h, radius) == expected

    def test_monotone_within_radius(self):
        for radius in range(1, 6):
            values = [weight(h, radius) for h in range(radius + 1)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_center_weight_is_one_for_any_radius(self):
        assert all(weight(0, radius) == 1.0 for radius in range(10))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weight(-1, 1)


class TestBuildSchedule:
    def test_linear_reference_bands(self):
        params = BoiParams()  # gamma0=10, L=100, step 40
        got = build_schedule(dataclasses.replace(params, schedule="linear"))
        expected = [10] * 39 + [8] * 40 + [6] * 21
        assert list(got) == expected

    def test_sublinear_reference_bands(self):
        params = BoiParams()  # gamma0=10, L=100, step 25, drops from table 50
        got = build_schedule(dataclasses.replace(params, schedule="sublinear"))
        expected = [10] * 49 + [8] * 25 + [6] * 25 + [4]
        assert list(got) == expected

    def test_fixed_zero(self):
        params = BoiParams(
            num_tables=17, initial_probe_count=0, schedule="fixed"
        )
        assert np.all(build_schedule(params) == 0)

    def test_clamped_at_zero(self):
        params = BoiParams(num_tables=7, initial_probe_count=2, linear_step=2)
        got = build_schedule(dataclasses.replace(params, schedule="linear"))
        assert list(got) == [2, 0, 0, 0, 0, 0, 0]

    def test_sublinear_odd_table_count(self):
        # first reduction fires at ceil(L/2)
        params = BoiParams(
            num_tables=5, initial_probe_count=4, sublinear_step=1
        )
        got = build_schedule(dataclasses.replace(params, schedule="sublinear"))
        assert list(got) == [4, 4, 2, 0, 0]

    def test_non_increasing_and_bounded(self):
        for kind in ("fixed", "linear", "sublinear"):
            for L in (1, 2, 39, 40, 101):
                params = BoiParams(num_tables=L, initial_probe_count=9)
                g = build_schedule(dataclasses.replace(params, schedule=kind))
                assert len(g) == L
                assert np.all(np.diff(g) <= 0)
                assert g.min() >= 0 and g.max() <= 9

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_schedule(dataclasses.replace(BoiParams(), schedule="quadratic"))


class TestExpectedProbes:
    """A query probes sum_i sum_{j=0..radius} C(gamma_i, j) buckets when
    no budget is capped; the j=0 term is the query's own bucket."""

    @staticmethod
    def probe_count(**params) -> int:
        data = VectorSet(np.eye(4, 3, dtype=np.float32))
        index = build_index(data, BoiParams(seed=1, **params))
        return query(index, data.vectors[0], 1).probe_count

    def test_constant_schedule(self):
        got = self.probe_count(num_tables=100, initial_probe_count=8, schedule="fixed")
        assert got == 100 * (1 + 8) == 900

    def test_sublinear_reference(self):
        # summation oracle over the frozen bands of the default schedule
        oracle = sum(1 + g for g in [10] * 49 + [8] * 25 + [6] * 25 + [4])
        assert oracle == 944
        assert self.probe_count(schedule="sublinear", probe_radius=1) == 944

    def test_single_table_no_probes(self):
        got = self.probe_count(num_tables=1, initial_probe_count=0, probe_radius=0)
        assert got == 1

    def test_radius_two_formula(self):
        # gamma = [3, 1]: the linear schedule drops 2 at table 2
        got = self.probe_count(
            num_tables=2, initial_probe_count=3, schedule="linear", linear_step=2,
            probe_radius=2,
        )
        oracle = (
            math.comb(3, 0) + math.comb(3, 1) + math.comb(3, 2)
            + math.comb(1, 0) + math.comb(1, 1)
        )
        assert got == oracle == 9

    def test_huge_radius_is_capped_at_gamma(self):
        rng = np.random.default_rng(3)
        data = VectorSet(rng.standard_normal((30, 5)).astype(np.float32))
        for strict in (False, True):
            params = fixed_params(probe_radius=2**31 - 1, strict_radius=strict)
            index = build_index(data, params)
            # gamma0=3 neighbors, all within the 4-bit code space
            assert query(index, data.vectors[0], 3).probe_count == 8 * 8
        assert neighbor_budget(10, 10**9) == 2**10 - 1

    def test_neighbor_budget_is_probe_count_minus_center(self):
        for gamma in (0, 1, 5, 10):
            for radius in (0, 1, 2, 3):
                per_table = sum(math.comb(gamma, j) for j in range(radius + 1))
                assert neighbor_budget(gamma, radius) == per_table - 1


def reference_schedule(params):
    """Gamma per table from the per-table loop that first defined the
    schedules: a drop of 2 at each listed 1-based table, clamped at 0."""
    L = params.num_tables
    if params.schedule == "fixed":
        drops = range(0)
    elif params.schedule == "linear":
        drops = range(params.linear_step, L + 1, params.linear_step)
    else:
        half = (L + 1) // 2
        drops = range(half, L + 1, params.sublinear_step)
    drop_set = frozenset(drops)
    gammas, current = [], params.initial_probe_count
    for i in range(1, L + 1):
        if i in drop_set:
            current = max(current - 2, 0)
        gammas.append(current)
    return gammas


@st.composite
def probe_params(draw):
    bits = draw(st.integers(1, 10))
    num_tables = draw(st.integers(1, 60))
    return BoiParams(
        num_tables=num_tables,
        hash_bits=bits,
        probe_radius=draw(st.integers(0, bits + 2) | st.just(2**31 - 1)),
        initial_probe_count=draw(st.integers(0, 2**bits - 1)),
        schedule=draw(st.sampled_from(SCHEDULE_KINDS)),
        linear_step=draw(st.integers(1, num_tables + 1)),
        sublinear_step=draw(st.integers(1, num_tables + 1)),
        strict_radius=draw(st.booleans()),
    )


@given(probe_params())
@settings(max_examples=150, deadline=None)
def test_schedule_and_budgets_match_reference(params):
    schedule = build_schedule(params)
    assert schedule.dtype == np.int32 and not schedule.flags.writeable
    assert schedule.tolist() == reference_schedule(params)
    assert np.all(np.diff(schedule) <= 0)
    L, bits, radius = params.num_tables, params.hash_bits, params.probe_radius
    words = (L, max(1, 2**bits // 64))
    empty_tables = ProjectionTable(
        np.zeros((L * bits, 1)),
        np.zeros(words, dtype=np.uint64),
        np.zeros(L, dtype=np.int32),
        np.zeros((L, 0), dtype=np.int32),
        np.arange(0),
    )
    index = BoiIndex(params, empty_tables)
    if params.strict_radius:
        cap = sum(math.comb(bits, j) for j in range(1, min(radius, bits) + 1))
    else:
        cap = 2**bits - 1
    uncapped = {g: neighbor_budget(g, radius) for g in set(schedule.tolist())}
    budgets = [min(uncapped[g], cap) for g in schedule.tolist()]
    assert index.plan.budgets.tolist() == budgets


class TestBudgets:
    @pytest.mark.parametrize("strict", [False, True])
    def test_huge_gamma_and_radius_build_at_once(self, strict):
        data = VectorSet(np.eye(3, dtype=np.float32))
        params = BoiParams(
            hash_bits=16,
            initial_probe_count=65535,
            probe_radius=10**9,
            strict_radius=strict,
        )
        index = build_index(data, params)
        assert index.plan.budgets.tolist() == [65535] * params.num_tables

    def test_cap_stops_the_sum(self):
        assert neighbor_budget(10, 3, cap=50) == 50
        assert neighbor_budget(10, 3, cap=10**6) == 10 + 45 + 120
        assert neighbor_budget(2**30 - 1, 10**9, cap=2**30 - 1) == 2**30 - 1


class TestUnits:
    @pytest.mark.parametrize(
        "bits, gamma, radius, strict",
        [(4, 3, 1, False), (8, 10, 1, False), (8, 10, 1, True), (6, 4, 2, True)],
    )
    def test_units_are_weight_per_plan_position(self, bits, gamma, radius, strict):
        params = BoiParams(
            num_tables=4, hash_bits=bits, initial_probe_count=gamma,
            probe_radius=radius, strict_radius=strict,
        )
        index = build_index(VectorSet(np.eye(3, dtype=np.float32)), params)
        masks, dists = probe_plan(bits, int(index.plan.budgets.max()))
        assert index.plan.units.dtype == np.uint32
        assert index.plan.units.tolist() == [
            weight(int(d), bits) * 2**bits for d in dists
        ]
        assert index.plan.masks.dtype == np.uint16
        assert np.array_equal(index.plan.masks, masks)
        for arr in (index.plan.units, index.plan.masks):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_query_derives_no_probe_plan(self, monkeypatch):
        # the plan is fixed when the index is made; a query only XORs its
        # codes with BoiIndex.plan.masks
        rng = np.random.default_rng(3)
        data = VectorSet(rng.standard_normal((60, 8)).astype(np.float32))
        index = build_index(data, fixed_params(initial_probe_count=5))
        want = query(index, data.vectors[4], 5)

        def refuse(*args):
            raise AssertionError("a query called probe_plan")

        monkeypatch.setattr(boi.index, "probe_plan", refuse)
        got = query(index, data.vectors[4], 5)
        assert got.ids.tolist() == want.ids.tolist()
        assert accumulate(index, data.vectors[4]).any()


def index_votes(index, q):
    """``_accumulate`` over the index's own probe plan."""
    return _accumulate(index.tables, q, index.plan)


def oracle_rows(index, q) -> np.ndarray:
    """The index's probe rows for ``q`` by the plain-Python oracle
    (``probe_rows.margin_rows``), from the codes and dot products the hash
    gives."""
    tables = index.tables
    dots = np.empty((tables.num_tables * tables.bits, 1), np.float32)
    codes = hash_codes_all(tables.sign_filter, q[np.newaxis, :], dots=dots)[0]
    plan = index.plan
    rows = margin_rows(codes, dots[:, 0], plan.masks, plan.budgets, tables.bits)
    return np.array(rows, dtype=np.uint16).reshape(tables.num_tables, -1)


def fixed_params(**kwargs):
    base = dict(
        num_tables=8,
        hash_bits=4,
        probe_radius=1,
        shortlist_size=16,
        initial_probe_count=3,
        schedule="fixed",
        seed=5,
    )
    base.update(kwargs)
    return BoiParams(**base)


@pytest.fixture(scope="module")
def small_index():
    rng = np.random.default_rng(10)
    data = VectorSet(rng.standard_normal((400, 12)).astype(np.float32))
    params = fixed_params(num_tables=12, shortlist_size=50)
    return build_index(data, params), data


class TestAccumulate:
    def test_self_collision_weight_is_table_count(self):
        rng = np.random.default_rng(1)
        data = VectorSet(rng.standard_normal((50, 10)).astype(np.float32))
        params = fixed_params(num_tables=9, initial_probe_count=0)
        index = build_index(data, params)
        w = accumulate(index, data.vectors[13])
        assert w.shape == (50,) and w.dtype == np.int32
        assert w[13] == 9 * 2**4  # weight 1 in each table, in units of 2**-4

    def test_mixed_membership_accumulates_2_5(self):
        # three 1-bit tables; the record shares the query bucket in the
        # first two and sits one bit away in the third, probed with
        # gamma=1, so its weight is 1 + 1 + 1/2, or 5 units of 2**-1
        record = VectorSet(np.array([[1.0, 1.0]], dtype=np.float32))
        matrices = [[[1.0, 0.0]], [[0.0, 1.0]], [[-1.0, 1.0]]]
        tables = insert_all(
            np.asarray(matrices, dtype=np.float32).reshape(3, 2), 1, record
        )
        params = BoiParams(
            num_tables=3,
            hash_bits=1,
            probe_radius=1,
            shortlist_size=1,
            initial_probe_count=1,
            schedule="fixed",
            seed=0,
        )
        index = BoiIndex(params, tables, record)
        w = accumulate(index, np.array([1.0, 0.0], dtype=np.float32))
        assert w.tolist() == [5]

    def test_unprobed_record_stays_zero(self):
        v = np.array([[1.0, 2.0, -0.5, 3.0]], dtype=np.float32)
        data = VectorSet(np.concatenate([v, -v]))
        params = fixed_params(num_tables=6, initial_probe_count=0)
        index = build_index(data, params)
        w = accumulate(index, data.vectors[0])
        assert w[0] == 6 * 2**4
        assert w[1] == 0  # complement codes in every table, never probed

    def test_weights_are_dyadic_sums(self, small_index):
        # integer counts of 2**-b, the very array query shortlists
        index, data = small_index
        rng = np.random.default_rng(2)
        q = rng.standard_normal(12).astype(np.float32)
        w = accumulate(index, q, query_index=3)
        assert w.dtype == np.int32
        # the kernel's votes are in internal order: entry i is record order[i]
        internal = index_votes(index, q)[0]
        assert np.array_equal(w[index.tables.order], internal)
        assert np.all(w >= 0)

    @pytest.mark.parametrize("num_tables, bits", [(5, 3), (128, 8), (257, 8)])
    def test_full_probe_matches_per_record_loop(self, num_tables, bits):
        # every bucket probed, so record r gets sum_t weight(H_t(r), bits)
        # in units of 2**-bits;
        # 128 tables of 8 bits reach 2**15 units of 2**-8, one past int16,
        # and 257 tables pass 2**16, one past uint16
        rng = np.random.default_rng(num_tables)
        data = VectorSet(rng.standard_normal((40, 6)).astype(np.float32))
        params = fixed_params(
            num_tables=num_tables,
            hash_bits=bits,
            initial_probe_count=(1 << bits) - 1,
        )
        index = build_index(data, params)
        sign_filter = index.tables.sign_filter
        record_codes = hash_codes_all(sign_filter, data.vectors)
        for q in (data.vectors[0], rng.standard_normal(6).astype(np.float32)):
            query_codes = hash_codes_all(sign_filter, q[np.newaxis, :])[0]
            expected = [
                sum(
                    weight(bin(int(qc ^ rc)).count("1"), bits) * 2**bits
                    for qc, rc in zip(query_codes, record_codes[r])
                )
                for r in range(data.n)
            ]
            assert accumulate(index, q).tolist() == expected

    def test_query_index_is_ignored(self, small_index):
        index, data = small_index
        q = data.vectors[7]
        votes = accumulate(index, q)
        res = query(index, q, 10)
        for query_index in (0, 42, 2**20):
            assert accumulate(index, q, query_index).tobytes() == votes.tobytes()
            again = query(index, q, 10, query_index)
            assert again.ids.tobytes() == res.ids.tobytes()
            assert again.distances.tobytes() == res.distances.tobytes()

    def test_dimension_mismatch(self, small_index):
        index, _ = small_index
        with pytest.raises(ValueError):
            accumulate(index, np.zeros(5, dtype=np.float32))


class TestShortlist:
    def test_top_two_by_weight(self):
        assert shortlist(np.array([0.5, 3.0, 0.0, 1.5]), 2).tolist() == [1, 3]

    def test_tie_broken_by_id(self):
        assert shortlist(np.array([1.0, 1.0, 1.0]), 2).tolist() == [0, 1]

    def test_zero_weights_excluded(self):
        assert shortlist(np.zeros(10), 250).size == 0

    def test_fewer_nonzero_than_requested(self):
        assert shortlist(np.array([0.0, 2.0, 0.0]), 5).tolist() == [1]

    def test_matches_sorted_oracle(self):
        rng = np.random.default_rng(8)
        cases = []
        for _ in range(40):
            n = int(rng.integers(1, 60))
            votes = rng.integers(int(rng.integers(0, 2)), 5, size=n)
            cases.append((votes, [int(rng.integers(1, n + 1))]))
        # accumulator-sized votes, as dense as at b=8 and as sparse as at
        # b=16, with so few distinct values that thousands tie at the cut
        n = 100_000
        for touched in (0.96, 0.05):
            votes = rng.integers(1, 12, size=n) * (rng.random(n) < touched)
            cases.append((votes.astype(np.int32), [250, 3000, 20_000]))
        for votes, sizes in cases:
            n = votes.size
            v = votes.tolist()
            oracle = sorted((i for i in range(n) if v[i] > 0), key=lambda i: (-v[i], i))
            # float weights all in (0, 1), and the integer votes of the
            # accumulator and the baselines, signed and unsigned
            weights = [votes / 16.0] + [
                votes.astype(dtype)
                for dtype in (np.int16, np.int32, np.uint16, np.uint32)
            ]
            for eps in sizes + [1, max(n - 1, 1), n, n + 1, 2 * n]:
                for w in weights:
                    got = shortlist(w, eps)
                    assert got.tolist() == oracle[:eps], (w.dtype, n, eps)

    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            shortlist(np.array([1.0]), 0)

    def test_ties_at_the_cut_keep_the_lowest_record_ids(self):
        # internal ids 0..3 are records 3..0, all tied: records 0 and 1 are
        # kept, the highest internal ids
        order = np.array([3, 2, 1, 0], np.int32)
        assert shortlist(np.full(4, 5, np.int32), 2, order).tolist() == [0, 1]
        votes = np.array([5, 5, 9, 5], np.int32)  # record 1 leads
        assert shortlist(votes, 2, order).tolist() == [1, 0]
        assert shortlist(votes, 3, order).tolist() == [1, 0, 2]

    def test_order_maps_to_the_record_order_shortlist(self):
        # votes in internal order, shortlisted through a random order, give
        # the shortlist of the same votes scattered back to record order
        rng = np.random.default_rng(9)
        for n, touched in ((50, 0.7), (3000, 0.96), (3000, 0.05)):
            order = rng.permutation(n).astype(np.int32)
            votes = (rng.integers(1, 6, n) * (rng.random(n) < touched)).astype(np.int32)
            records = np.empty_like(votes)
            records[order] = votes
            for eps in (1, 7, 250, n - 1, n, n + 1):
                assert np.array_equal(
                    shortlist(votes, eps, order), shortlist(records, eps)
                ), (n, eps)


class TestQuery:
    def test_self_query_ranks_first_at_zero(self, small_index):
        index, data = small_index
        res = query(index, data.vectors[123], 5, query_index=0)
        assert res.ids[0] == 123
        assert res.distances[0] == 0.0
        w = accumulate(index, data.vectors[123], query_index=0)
        p = index.params
        assert w[123] == w.max() >= p.num_tables * 2**p.hash_bits

    def test_empty_shortlist_gives_empty_result(self):
        data = VectorSet(np.array([[1.0, 2.0, -0.5, 3.0]], dtype=np.float32))
        params = fixed_params(num_tables=4, initial_probe_count=0)
        index = build_index(data, params)
        res = query(index, -data.vectors[0], 3)
        assert len(res) == 0
        assert res.shortlist_size == 0
        assert res.probe_count == 4

    def test_empty_set_of_known_width_answers_empty(self, tmp_path):
        # no records, but 8 values wide: every path answers an 8-wide query
        # with nothing, as brute force does, and still rejects other widths
        data = VectorSet(np.empty((0, 8), dtype=np.float32))
        index = build_index(data, fixed_params(num_tables=4))
        save_index(index, tmp_path / "empty.boix")
        loaded = load_index(tmp_path / "empty.boix", data)
        q = np.ones(8, dtype=np.float32)
        answers = [query(index, q, 3), query(loaded, q, 3)] + [
            multiprobe_lsh_query(index.tables, data, q, radius, 5, 3)
            for radius in (0, 1)
        ]
        assert len(brute_force_query(data, q, 3)) == 0
        assert [len(answer) for answer in answers] == [0, 0, 0, 0]
        with pytest.raises(ValueError, match="dimension mismatch"):
            query(index, np.ones(3, dtype=np.float32), 3)

    def test_set_of_no_width_is_refused(self):
        # an empty fvecs file reads as (0, 0): no projections of a known
        # width can be made for it
        with pytest.raises(ValueError, match="no known width"):
            build_index(VectorSet(np.empty((0, 0), dtype=np.float32)), fixed_params())

    def test_full_probe_degeneracy_equals_brute_force(self):
        rng = np.random.default_rng(17)
        data = VectorSet(rng.standard_normal((300, 8)).astype(np.float32))
        params = BoiParams(
            num_tables=7,
            hash_bits=2,
            probe_radius=2,
            shortlist_size=300,
            initial_probe_count=3,
            schedule="fixed",
            seed=3,
        )
        index = build_index(data, params)
        for qi in range(20):
            q = rng.standard_normal(8).astype(np.float32)
            approx = query(index, q, 300, query_index=qi)
            exact = brute_force_query(data, q, 300)
            assert np.array_equal(approx.ids, exact.ids)
            assert np.array_equal(approx.distances, exact.distances)

    def test_probe_count_matches_formula(self, small_index):
        index, data = small_index
        radius = index.params.probe_radius
        want = sum(
            math.comb(g, j)
            for g in build_schedule(index.params).tolist()
            for j in range(radius + 1)
        )
        for qi in range(5):
            res = query(index, data.vectors[qi], 3, query_index=qi)
            assert res.probe_count == want

    def test_shortlist_size_reported(self, small_index):
        index, data = small_index
        res = query(index, data.vectors[0], 3)
        assert 1 <= res.shortlist_size <= index.params.shortlist_size

    @pytest.mark.parametrize("strict", [False, True])
    def test_float64_query_ranks_as_its_float32_cast(self, small_index, strict):
        # the re-rank measures from the validated float32 query, never from
        # the caller's float64 values
        index, data = small_index
        params = dataclasses.replace(
            index.params, probe_radius=2, initial_probe_count=6, strict_radius=strict
        )
        index = BoiIndex(params, index.tables, data)
        rng = np.random.default_rng(23)
        for qi in range(10):
            q64 = rng.standard_normal(12)
            q32 = q64.astype(np.float32)
            assert not np.array_equal(q64, q32)
            got, want = query(index, q64, 5, qi), query(index, q32, 5, qi)
            assert len(want) == 5
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.distances, want.distances)

    def test_requires_dataset(self, small_index):
        index, data = small_index
        bare = BoiIndex(index.params, index.tables)
        with pytest.raises(RuntimeError):
            query(bare, data.vectors[0], 1)

    def test_rejects_k_zero(self, small_index):
        index, data = small_index
        with pytest.raises(ValueError):
            query(index, data.vectors[0], 0)


class TestStrictRadius:
    def test_probes_capped_at_radius_shell(self):
        rng = np.random.default_rng(4)
        data = VectorSet(rng.standard_normal((100, 16)).astype(np.float32))
        params = BoiParams(
            num_tables=10, schedule="fixed", seed=6, strict_radius=True
        )  # gamma0=10 exceeds the 8 one-bit neighbors of an 8-bit code
        index = build_index(data, params)
        res = query(index, data.vectors[0], 1)
        assert res.probe_count == 10 * (1 + 8)
        loose = BoiIndex(
            dataclasses.replace(params, strict_radius=False),
            index.tables,
            data,
        )
        assert query(loose, data.vectors[0], 1).probe_count == 10 * (1 + 10)

    def test_strict_weights_never_exceed_radius(self):
        rng = np.random.default_rng(5)
        data = VectorSet(rng.standard_normal((60, 8)).astype(np.float32))
        params = BoiParams(
            num_tables=5,
            hash_bits=3,
            initial_probe_count=7,
            probe_radius=1,
            schedule="fixed",
            seed=9,
            strict_radius=True,
        )
        index = build_index(data, params)
        w = accumulate(index, rng.standard_normal(8).astype(np.float32))
        # only distance-0 (1) and distance-1 (1/2) contributions remain,
        # 8 and 4 units of 2**-3
        assert np.all(w % 4 == 0)

    def test_modes_agree_when_budget_fits_radius(self):
        rng = np.random.default_rng(6)
        data = VectorSet(rng.standard_normal((80, 10)).astype(np.float32))
        base = BoiParams(
            num_tables=6,
            hash_bits=8,
            initial_probe_count=5,
            schedule="fixed",
            seed=12,
        )
        loose = build_index(data, base)
        strict = BoiIndex(
            dataclasses.replace(base, strict_radius=True),
            loose.tables,
            data,
        )
        q = rng.standard_normal(10).astype(np.float32)
        assert np.array_equal(
            accumulate(loose, q, query_index=1),
            accumulate(strict, q, query_index=1),
        )


class TestDeterminism:
    def test_rebuild_reproduces_everything(self):
        rng = np.random.default_rng(20)
        raw = rng.standard_normal((250, 12)).astype(np.float32)
        queries = rng.standard_normal((5, 12)).astype(np.float32)

        def run():
            data = VectorSet(raw.copy())
            params = BoiParams(
                num_tables=20, hash_bits=6, initial_probe_count=4, seed=77
            )
            index = build_index(data, params)
            accs = [accumulate(index, q, query_index=i) for i, q in enumerate(queries)]
            results = [query(index, q, 10, query_index=i) for i, q in enumerate(queries)]
            return index, accs, results

        i1, a1, r1 = run()
        i2, a2, r2 = run()
        t1, t2 = i1.tables, i2.tables
        assert np.array_equal(t1.projections, t2.projections)
        assert np.array_equal(t1.members, t2.members)
        for x, y in zip(a1, a2):
            assert np.array_equal(x, y)
        for x, y in zip(r1, r2):
            assert np.array_equal(x.ids, y.ids)
            assert np.array_equal(x.distances, y.distances)


@st.composite
def tail_cases(draw):
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 6))
    bits = draw(st.integers(1, 6))
    num_tables = draw(st.integers(1, 12))
    params = BoiParams(
        num_tables=num_tables,
        hash_bits=bits,
        probe_radius=draw(st.integers(0, bits + 1)),
        shortlist_size=draw(st.integers(1, n + 2)),
        initial_probe_count=draw(st.integers(0, 2**bits - 1)),
        schedule=draw(st.sampled_from(SCHEDULE_KINDS)),
        linear_step=draw(st.integers(1, num_tables + 1)),
        sublinear_step=draw(st.integers(1, num_tables + 1)),
        seed=draw(st.integers(0, 2**32)),
        strict_radius=draw(st.booleans()),
    )
    # a coarse integer grid makes equal votes and equal distances common
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        raw = rng.integers(-2, 3, size=(n + 1, dim))
    else:
        raw = rng.standard_normal((n + 1, dim))
    raw = raw.astype(np.float32)
    query_index = draw(st.integers(0, 2**20))
    k = draw(st.integers(1, n + 1))
    return VectorSet(raw[:n]), raw[n], params, query_index, k


def reference_votes(index, q):
    """Per-record votes in units of 2**-b: table t probes the first
    budgets[t] + 1 codes of its probe row (its query code XOR the
    ``probe_plan`` masks, its own bucket first, in the oracle's order),
    and each record sums weight(H, b) * 2**b over every probed bucket
    holding its code, at the bucket's true Hamming distance H from the
    table's query code."""
    tables, bits = index.tables, index.params.hash_bits
    codes = hash_codes_all(tables.sign_filter, q[np.newaxis, :])[0]
    probes = oracle_rows(index, q)
    probed = []
    for t, budget in enumerate(index.plan.budgets.tolist()):
        found = {}
        for code in probes[t, : budget + 1].tolist():
            hamming = bin(code ^ int(codes[t])).count("1")
            found[code] = int(weight(hamming, bits) * 2**bits)
        probed.append(found)
    record_codes = hash_codes_all(tables.sign_filter, index.dataset.vectors)
    return [
        sum(probed[t].get(int(c), 0) for t, c in enumerate(record_codes[r]))
        for r in range(index.n)
    ]


@given(tail_cases())
@settings(max_examples=60, deadline=None)
def test_accumulate_and_query_match_reference(case):
    data, q, params, query_index, k = case
    index = build_index(data, params)
    expected = reference_votes(index, q)
    assert accumulate(index, q, query_index).tolist() == expected

    touched = sorted(
        (r for r in range(data.n) if expected[r] != 0),
        key=lambda r: (-expected[r], r),
    )[: params.shortlist_size]
    exact = brute_force_query(data, q, data.n)
    dist = dict(zip(exact.ids.tolist(), exact.distances.tolist()))
    oracle = sorted(touched, key=lambda r: (dist[r], r))[:k]
    res = query(index, q, k, query_index)
    assert res.ids.tolist() == oracle
    assert res.distances.tolist() == [dist[r] for r in oracle]
    assert res.shortlist_size == len(touched)
    assert res.probe_count == int((index.plan.budgets + 1).sum())


def numpy_accumulate(index, q):
    """The accumulator in numpy, one gather and one ``np.add.at`` per
    Hamming distance: the oracle for the compiled kernel's int32 votes,
    probe count and (id, vote) pairs scanned (the total length of the
    ``tables.bucket`` gathers over the same probe list)."""
    tables = index.tables
    bits = tables.bits
    budgets = index.plan.budgets
    dists = probe_plan(bits, int(budgets.max()))[1]
    probes = oracle_rows(index, q)
    probed = np.arange(dists.size) < budgets[:, np.newaxis] + 1
    votes = np.zeros(tables.n, np.int32)
    pairs = 0
    for h in range(int(dists[-1]) + 1):
        rows, cols = (probed & (dists == h)).nonzero()
        members = tables.bucket(rows, probes[rows, cols])
        # a numpy scalar unit keeps np.add.at on its fast path
        np.add.at(votes, members, np.int32(weight(h, bits) * (1 << bits)))
        pairs += members.size
    return votes, int(np.count_nonzero(probed)), pairs


@given(tail_cases())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_numpy_oracle(case):
    data, q, params, query_index, k = case
    index = build_index(data, params)
    votes, probes, pairs = index_votes(index, q)
    want_votes, want_probes, want_pairs = numpy_accumulate(index, q)
    assert votes.dtype == np.int32
    # the oracle gathers record ids; the kernel votes in internal order
    assert np.array_equal(votes, want_votes[index.tables.order])
    assert (probes, pairs) == (want_probes, want_pairs)
    res = query(index, q, k, query_index)
    assert (res.probe_count, res.pairs_scanned) == (want_probes, want_pairs)


def test_kernel_matches_numpy_oracle_across_tiles_and_batches(tmp_path):
    # the kernel sweeps ids in tiles of 8192 and collects at most 1024
    # buckets before a sweep: 20k records span 3 tiles, and probing all 256
    # buckets of 16 tables collects several batches
    rng = np.random.default_rng(21)
    data = VectorSet(rng.standard_normal((20_000, 16)).astype(np.float32))
    params = BoiParams(
        num_tables=16, hash_bits=8, initial_probe_count=255,
        schedule="fixed", probe_radius=8,
    )
    built = build_index(data, params)
    assert int((built.plan.budgets + 1).sum()) == 4096
    # non-empty buckets: every start but each table's n
    assert built.tables.offsets.size - built.tables.num_tables > 3 * 1024
    path = tmp_path / "tiles.boix"
    save_index(built, path)
    loaded = load_index(path, data)
    for index in (built, loaded):
        for _ in range(3):
            q = rng.standard_normal(16).astype(np.float32)
            votes, probes, pairs = index_votes(index, q)
            want = numpy_accumulate(index, q)
            assert np.array_equal(votes, want[0][index.tables.order])
            assert (probes, pairs) == want[1:] == (4096, 16 * data.n)


@pytest.mark.parametrize("bits", [4, 8])
def test_stages_one_by_one_compose_to_query(tmp_path, bits):
    # accumulate, shortlist and the exact re-rank called one at a time, as
    # a traced benchmark pass times them, give query's answer bit for bit
    rng = np.random.default_rng(30 + bits)
    data = VectorSet(rng.standard_normal((3_000, 16)).astype(np.float32))
    picks = rng.choice(data.n, 8, replace=False)
    noise = 0.3 * rng.standard_normal((8, 16))
    queries = (data.vectors[picks] + noise).astype(np.float32)
    params = BoiParams(num_tables=24, hash_bits=bits, shortlist_size=80, seed=4)
    built = build_index(data, params)
    path = tmp_path / "stages.boix"
    save_index(built, path)
    loaded = load_index(path, data)
    for index in (built, loaded):
        for qi, q in enumerate(queries):
            votes = accumulate(index, q, qi)
            assert votes.dtype == np.int32
            # accumulate scatters the kernel's internal-order votes back to
            # record order
            internal = index_votes(index, q)[0]
            assert votes[index.tables.order].tobytes() == internal.tobytes()
            c = shortlist(votes, params.shortlist_size)
            ids, dists = rank_by_distance(
                c, pairwise_distances(data.vectors[c], q), 10
            )
            res = query(index, q, 10, qi)
            assert ids.size == 10
            assert ids.tobytes() == res.ids.tobytes()
            assert dists.tobytes() == res.distances.tobytes()


def record_id_tables(tables: ProjectionTable, step: int) -> ProjectionTable:
    """The same buckets handed over by record id, each listed in ascending
    (``step`` 1) or descending (-1) record order, and numbered in the order
    table 0 lists them (``hand_tables.from_record_ids``)."""
    records = tables.order[tables.members]
    dense = dense_offsets(tables)
    members = np.stack(
        [
            np.concatenate(
                [np.sort(bucket)[::step] for bucket in np.split(row, offsets[1:-1])]
            )
            for row, offsets in zip(records, dense)
        ]
    )
    return from_record_ids(tables.projections, dense, members)


@pytest.mark.parametrize("kind", ["ties", "random"])
def test_internal_order_answers_as_record_order(kind):
    # a built index numbers its records in table 0's bucket order, with
    # ascending record ids inside a bucket; numbered with them descending,
    # so that internal and record ids run against each other, the same
    # buckets must answer every query identically
    rng = np.random.default_rng(41)
    if kind == "ties":
        # 12 distinct rows repeated: whole buckets tie, and so do distances
        rows = rng.standard_normal((12, 6)).astype(np.float32)
        data = VectorSet(rows[rng.integers(0, 12, 90)])
        params = BoiParams(
            num_tables=6, hash_bits=3, initial_probe_count=3, shortlist_size=7,
            seed=2,
        )
    else:
        data = VectorSet(rng.standard_normal((2000, 16)).astype(np.float32))
        params = BoiParams(num_tables=20, hash_bits=8, shortlist_size=60, seed=3)
    built = build_index(data, params)
    assert not np.array_equal(built.tables.order, np.arange(data.n))
    # handed over by ascending record id, the buckets number as the build
    again = record_id_tables(built.tables, 1)
    assert again.order.tobytes() == built.tables.order.tobytes()
    assert again.members.tobytes() == built.tables.members.tobytes()
    plain = BoiIndex(params, record_id_tables(built.tables, -1), data)
    assert not np.array_equal(plain.tables.order, built.tables.order)
    assert np.array_equal(plain.tables.members[0], np.arange(data.n))
    for t in range(params.num_tables):
        for c in range(1 << params.hash_bits):
            assert np.array_equal(
                np.sort(plain.tables.bucket([t], [c])),
                np.sort(built.tables.bucket([t], [c])),
            )
    for qi in range(12):
        q = data.vectors[qi] + 0.1 * rng.standard_normal(data.dim).astype(np.float32)
        assert np.array_equal(accumulate(built, q, qi), accumulate(plain, q, qi))
        answers = [
            (
                query(index, q, 5, qi),
                *(
                    multiprobe_lsh_query(
                        index.tables, data, q, radius, params.shortlist_size, 5
                    )
                    for radius in (0, 1)
                ),
            )
            for index in (built, plain)
        ]
        for mine, theirs in zip(*answers):
            assert mine.ids.tobytes() == theirs.ids.tobytes()
            assert mine.distances.tobytes() == theirs.distances.tobytes()
            assert (mine.probe_count, mine.shortlist_size, mine.pairs_scanned) == (
                theirs.probe_count, theirs.shortlist_size, theirs.pairs_scanned
            )


class TestCorruptTables:
    """A table whose bucket offsets or later-row ids leave their range
    raises ValueError instead of reading out of bounds or answering
    wrongly: the constructor refuses a directory whose offsets leave their
    range, and the kernel a bad id it probes. The constructor checks only
    row 0 of the members, so a bad id sits in row 1 of a two-table index."""

    @pytest.mark.parametrize(
        "offsets, members",
        [
            ([[0, 2, 4]] * 2, [[0, 1, 2, 3], [0, 1, 2, 4]]),  # id equal to n
            ([[0, 2, 4]] * 2, [[0, 1, 2, 3], [0, 1, 2, -1]]),  # negative id
            ([[0, 3, 2]], [[0, 1, 2, 3]]),  # decreasing offsets
            ([[0, 2, 5]], [[0, 1, 2, 3]]),  # offset past n
            ([[-1, 2, 4]], [[0, 1, 2, 3]]),  # negative offset
        ],
        ids=["id=n", "id=-1", "decreasing", "past-n", "negative"],
    )
    def test_query_raises(self, offsets, members):
        data = VectorSet(np.arange(8, dtype=np.float32).reshape(4, 2))
        num_tables = len(offsets)
        params = BoiParams(
            num_tables=num_tables, hash_bits=1, initial_probe_count=1,
            schedule="fixed",
        )
        with pytest.raises(ValueError, match="corrupt hash table|offsets do not rise"):
            tables = ProjectionTable(
                np.tile([[1.0, -1.0]], (num_tables, 1)),
                *directory(np.array(offsets, dtype=np.int64)),
                np.array(members, dtype=np.int32),
                np.arange(data.n),
            )
            index = BoiIndex(params, tables, data)  # probes both buckets
            query(index, data.vectors[0], 2)

    @pytest.mark.parametrize("bad", [20_000, -1], ids=["id=n", "id=-1"])
    def test_bad_id_in_last_tile_raises(self, bad):
        # the kernel sweeps ids in tiles of 8192; the bad id is the last id
        # of a bucket of table 1, in the third and last tile of 20k records
        n = 20_000
        data = VectorSet(np.zeros((n, 2), dtype=np.float32))
        members = np.tile(np.arange(n, dtype=np.int32), (2, 1))
        members[1, -1] = bad
        tables = ProjectionTable(
            np.tile([[1.0, -1.0]], (2, 1)),
            *directory(np.array([[0, n // 2, n]] * 2, dtype=np.int32)),
            members,
            np.arange(n),
        )
        params = BoiParams(
            num_tables=2, hash_bits=1, initial_probe_count=1, schedule="fixed"
        )
        index = BoiIndex(params, tables, data)  # probes both buckets
        with pytest.raises(ValueError, match="corrupt hash table"):
            query(index, data.vectors[0], 2)


def test_threads_vote_like_one(small_index):
    # the kernel runs without the GIL; more threads than cores, switching
    # often, must give every query the votes a serial run gives it
    index, data = small_index
    queries = range(40)
    serial = [accumulate(index, data.vectors[qi], qi) for qi in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(accumulate, index, data.vectors[qi], qi) for qi in queries
            ]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


class TestMarginOrder:
    """A table whose budget ends inside a shell probes that shell's masks
    by ascending sum of the query's |q . a_j| over the bits j they flip."""

    def test_plan_finds_each_tables_partly_probed_shell(self):
        # 3 bits: shell 1 at positions [1, 4), shell 2 at [4, 7); a budget of
        # 4 probes 1 of shell 2, of 6 and 3 whole shells, of 2 stops in
        # shell 1, and of 0 probes the center alone
        masks, dists = probe_plan(3, 6)
        units = (np.uint32(1) << (3 - dists)).astype(np.uint32)
        budgets = np.array([4, 3, 2, 0, 6], np.int64)
        plan = _bound_plan(3, masks, dists, units, budgets)
        assert plan.shells.tolist() == [[4, 7], [0, 0], [1, 4], [0, 0], [0, 0]]
        assert (plan.width, plan.num_tables, plan.bits) == (7, 5, 3)
        for arr in (plan.masks, plan.units, plan.budgets, plan.shells):
            assert not arr.flags.writeable

    def test_hand_built_budgets_end_mid_shell_one_and_two(self):
        # two 3-bit tables over 8 records, record r alone in bucket r of
        # each. gamma 4 and 2 at radius 1: table 0 probes its bucket, the
        # 3 one-bit neighbors and 1 of the 3 two-bit ones; table 1 its
        # bucket and 2 of the 3 one-bit neighbors
        params = BoiParams(
            num_tables=2, hash_bits=3, probe_radius=1, initial_probe_count=6,
            schedule="linear", linear_step=1, shortlist_size=8,
        )
        projections = np.array(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1], [1, 0, 0], [0, 1, 0]],
            dtype=np.float32,
        )
        tables = from_record_ids(
            projections, [list(range(9))] * 2, [list(range(8))] * 2
        )
        index = BoiIndex(params, tables)
        assert index.plan.budgets.tolist() == [4, 2]
        assert index.plan.shells.tolist() == [[4, 7], [1, 4]]
        q = np.array([0.5, -0.2, 0.1], dtype=np.float32)
        # table 0: dots (0.5, -0.2, 0.1), code 0b101 = 5, margins 0.5, 0.2
        # and 0.1. Shell 2 in plan order is masks 3, 5, 6 with margin sums
        # 0.7, 0.6 and 0.3, so mask 6 goes first: bucket 5 ^ 6 = 3.
        # table 1: dots (0.1, 0.5, -0.2), code 0b011 = 3, margins 0.1, 0.5
        # and 0.2. Shell 1 goes by masks 1, 4, 2: buckets 2, 7 (then 1).
        probed = {5: 8, 4: 4, 7: 4 + 4, 1: 4, 3: 2 + 8, 2: 4}
        want = [probed.get(r, 0) for r in range(8)]
        assert accumulate(index, q).tolist() == want
        assert oracle_rows(index, q)[:, :5].tolist() == [[5, 4, 7, 1, 3], [3, 2, 7, 1, 0]]
        # plan order, as the rows were before, would have probed bucket 6
        # in table 0 and bucket 1 in table 1
        assert want[6] == 0 and want[1] == 4

    def test_rows_match_the_oracle_at_the_paper_defaults(self):
        # b = 8, gamma_0 = 10 spills 2 buckets into shell 2, gamma 8 probes
        # shell 1 whole, and the sublinear schedule's last tables stop
        # inside shell 1
        rng = np.random.default_rng(8)
        data = VectorSet(rng.standard_normal((500, 16)).astype(np.float32))
        index = build_index(data, BoiParams(num_tables=100, hash_bits=8, seed=2))
        assert {tuple(r) for r in index.plan.shells.tolist()} == {
            (9, 37), (0, 0), (1, 9)
        }
        for qi in range(5):
            q = rng.standard_normal(16).astype(np.float32)
            dots = np.empty((100 * 8, 1), np.float32)
            codes = hash_codes_all(index.tables.sign_filter, q[np.newaxis], dots=dots)[0]
            got = boi.index.neighbor_codes_with_distance(codes, dots[:, 0], index.plan)
            assert got.tolist() == oracle_rows(index, q).tolist()

    def test_query_of_huge_norm_orders_deterministically(self):
        # dots past float32's range overflow to inf (or NaN when two
        # infinities meet): their margin sums are not finite and sort last,
        # in plan order, while the codes stay exact
        rng = np.random.default_rng(12)
        data = VectorSet(rng.standard_normal((200, 8)).astype(np.float32))
        q = (np.sign(rng.standard_normal(8)) * 3e38).astype(np.float32)
        partial = build_index(
            data,
            BoiParams(num_tables=6, hash_bits=4, initial_probe_count=6,
                      schedule="linear", linear_step=2, shortlist_size=200),
        )
        dots = np.empty((6 * 4, 1), np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            hash_codes_all(partial.tables.sign_filter, q[np.newaxis], dots=dots)
        assert not np.isfinite(dots).all()
        assert partial.plan.shells.any()
        votes = accumulate(partial, q)
        assert accumulate(partial, q).tobytes() == votes.tobytes()
        assert index_votes(partial, q)[0].tolist() == numpy_accumulate(partial, q)[0][
            partial.tables.order
        ].tolist()
        full = build_index(
            data,
            BoiParams(num_tables=6, hash_bits=4, initial_probe_count=15,
                      probe_radius=4, shortlist_size=200),
        )
        approx = query(full, q, 200)
        exact = brute_force_query(data, q, 200)
        assert approx.ids.tobytes() == exact.ids.tobytes()
        assert approx.distances.tobytes() == exact.distances.tobytes()

    def test_built_and_loaded_index_answer_alike(self, tmp_path):
        rng = np.random.default_rng(19)
        data = VectorSet(rng.standard_normal((1500, 16)).astype(np.float32))
        built = build_index(data, BoiParams(num_tables=20, hash_bits=8, seed=6))
        assert built.plan.shells.any()
        path = tmp_path / "margins.boix"
        save_index(built, path)
        loaded = load_index(path, data)
        assert loaded.plan.shells.tobytes() == built.plan.shells.tobytes()
        for qi in range(10):
            q = data.vectors[qi] + 0.2 * rng.standard_normal(16).astype(np.float32)
            a, b = query(built, q, 10, qi), query(loaded, q, 10, qi)
            assert a.ids.tobytes() == b.ids.tobytes()
            assert a.distances.tobytes() == b.distances.tobytes()
            assert (a.probe_count, a.pairs_scanned) == (b.probe_count, b.pairs_scanned)
            assert accumulate(built, q).tobytes() == accumulate(loaded, q).tobytes()
