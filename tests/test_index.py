import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boi.baselines import brute_force_query
from boi.core import SCHEDULE_KINDS, BoiParams, VectorSet
from boi.data_io import load_index, save_index
from boi.hashing import (
    ProjectionTable,
    hash_codes_all,
    insert_all,
    neighbor_codes_with_distance,
)
from boi.index import (
    BoiIndex,
    _accumulate,
    _probe_rng,
    accumulate,
    build_index,
    build_schedule,
    expected_probes,
    neighbor_budget,
    query,
    shortlist,
    weight,
)


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
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            expected_probes(np.array([2, -1]), 1)

    def test_constant_schedule(self):
        sched = np.full(100, 8)
        assert expected_probes(sched, 1) == 900

    def test_sublinear_reference(self):
        sched = build_schedule(dataclasses.replace(BoiParams(), schedule="sublinear"))
        # summation oracle over the frozen bands
        oracle = sum(1 + g for g in [10] * 49 + [8] * 25 + [6] * 25 + [4])
        assert oracle == 944
        assert expected_probes(sched, 1) == 944

    def test_single_table_no_probes(self):
        sched = np.array([0])
        assert expected_probes(sched, 0) == 1

    def test_radius_two_formula(self):
        sched = np.array([3, 2])
        oracle = (
            math.comb(3, 0) + math.comb(3, 1) + math.comb(3, 2)
            + math.comb(2, 0) + math.comb(2, 1) + math.comb(2, 2)
        )
        assert expected_probes(sched, 2) == oracle == 11

    def test_huge_radius_is_capped_at_gamma(self):
        rng = np.random.default_rng(3)
        data = VectorSet(rng.standard_normal((30, 5)).astype(np.float32))
        for strict in (False, True):
            params = fixed_params(probe_radius=2**31 - 1, strict_radius=strict)
            index = build_index(data, params)
            # gamma0=3 neighbors, all within the 4-bit code space
            assert expected_probes(index.schedule, params.probe_radius) == 8 * 8
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
    empty_tables = ProjectionTable(
        np.zeros((L * bits, 1)),
        np.zeros((L, 2**bits + 1), dtype=np.int64),
        np.zeros((L, 0), dtype=np.int32),
    )
    index = BoiIndex(params, empty_tables)
    assert np.array_equal(index.schedule, schedule)
    if params.strict_radius:
        cap = sum(math.comb(bits, j) for j in range(1, min(radius, bits) + 1))
    else:
        cap = 2**bits - 1
    uncapped = {g: neighbor_budget(g, radius) for g in set(schedule.tolist())}
    assert index.budgets.tolist() == [min(uncapped[g], cap) for g in schedule.tolist()]


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
        assert index.budgets.tolist() == [65535] * params.num_tables

    def test_cap_stops_the_sum(self):
        assert neighbor_budget(10, 3, cap=50) == 50
        assert neighbor_budget(10, 3, cap=10**6) == 10 + 45 + 120
        assert neighbor_budget(2**30 - 1, 10**9, cap=2**30 - 1) == 2**30 - 1


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
        assert w.shape == (50,)
        assert w[13] == 9.0

    def test_mixed_membership_accumulates_2_5(self):
        # three 1-bit tables; the record shares the query bucket in the
        # first two and sits one bit away in the third, probed with
        # gamma=1, so its weight is 1 + 1 + 1/2
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
        assert w.tolist() == [2.5]

    def test_unprobed_record_stays_zero(self):
        v = np.array([[1.0, 2.0, -0.5, 3.0]], dtype=np.float32)
        data = VectorSet(np.concatenate([v, -v]))
        params = fixed_params(num_tables=6, initial_probe_count=0)
        index = build_index(data, params)
        w = accumulate(index, data.vectors[0])
        assert w[0] == 6.0
        assert w[1] == 0.0  # complement codes in every table, never probed

    def test_weights_are_dyadic_sums(self, small_index):
        index, data = small_index
        rng = np.random.default_rng(2)
        q = rng.standard_normal(12).astype(np.float32)
        w = accumulate(index, q, query_index=3)
        scaled = w * (1 << index.params.hash_bits)
        assert np.array_equal(scaled, np.round(scaled))
        assert np.all(w >= 0)

    @pytest.mark.parametrize("num_tables, bits", [(5, 3), (128, 8), (257, 8)])
    def test_full_probe_matches_per_record_loop(self, num_tables, bits):
        # every bucket probed, so record r gets sum_t weight(H_t(r), bits);
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
        proj = index.tables.projections
        record_codes = hash_codes_all(proj, bits, data.vectors)
        for q in (data.vectors[0], rng.standard_normal(6).astype(np.float32)):
            query_codes = hash_codes_all(proj, bits, q[np.newaxis, :])[0]
            expected = [
                sum(
                    weight(bin(int(qc ^ rc)).count("1"), bits)
                    for qc, rc in zip(query_codes, record_codes[r])
                )
                for r in range(data.n)
            ]
            assert accumulate(index, q).tolist() == expected

    def test_deterministic_per_query_index(self, small_index):
        index, data = small_index
        q = data.vectors[7]
        a = accumulate(index, q, query_index=42)
        b = accumulate(index, q, query_index=42)
        assert np.array_equal(a, b)

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
        for _ in range(40):
            n = int(rng.integers(1, 60))
            votes = rng.integers(0, 5, size=n)
            w = votes / 4.0
            eps = int(rng.integers(1, n + 1))
            oracle = sorted(
                (i for i in range(n) if w[i] > 0), key=lambda i: (-w[i], i)
            )[:eps]
            assert shortlist(w, eps).tolist() == oracle
            # the accumulator's integer votes rank the same way
            for dtype in (np.int16, np.int32, np.uint16):
                assert shortlist(votes.astype(dtype), eps).tolist() == oracle

    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            shortlist(np.array([1.0]), 0)


class TestQuery:
    def test_self_query_ranks_first_at_zero(self, small_index):
        index, data = small_index
        res = query(index, data.vectors[123], 5, query_index=0)
        assert res.ids[0] == 123
        assert res.distances[0] == 0.0
        w = accumulate(index, data.vectors[123], query_index=0)
        assert w[123] == w.max() >= index.params.num_tables

    def test_empty_shortlist_gives_empty_result(self):
        data = VectorSet(np.array([[1.0, 2.0, -0.5, 3.0]], dtype=np.float32))
        params = fixed_params(num_tables=4, initial_probe_count=0)
        index = build_index(data, params)
        res = query(index, -data.vectors[0], 3)
        assert len(res) == 0
        assert res.shortlist_size == 0
        assert res.probe_count == 4

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
        want = expected_probes(index.schedule, index.params.probe_radius)
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
        # only distance-0 (1) and distance-1 (1/2) contributions remain
        scaled = w * 2
        assert np.array_equal(scaled, np.round(scaled))

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


def reference_votes(index, q, query_index):
    """Per-record weights: table t probes its own bucket plus the first
    budgets[t] codes of the probe order, and each record sums the weight of
    every probed bucket holding its code."""
    tables, bits = index.tables, index.params.hash_bits
    codes = hash_codes_all(tables.projections, bits, q[np.newaxis, :])[0]
    ncodes, hdists = neighbor_codes_with_distance(
        codes,
        int(index.budgets.max()),
        bits,
        _probe_rng(index.params, query_index),
    )
    probed = []
    for t, budget in enumerate(index.budgets.tolist()):
        found = {int(codes[t]): weight(0, bits)}
        for code, h in zip(ncodes[t, :budget], hdists[:budget]):
            found[int(code)] = weight(int(h), bits)
        probed.append(found)
    record_codes = hash_codes_all(tables.projections, bits, index.dataset.vectors)
    return [
        sum(probed[t].get(int(c), 0.0) for t, c in enumerate(record_codes[r]))
        for r in range(index.n)
    ]


@given(tail_cases())
@settings(max_examples=60, deadline=None)
def test_accumulate_and_query_match_reference(case):
    data, q, params, query_index, k = case
    index = build_index(data, params)
    expected = reference_votes(index, q, query_index)
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
    assert res.probe_count == int((index.budgets + 1).sum())


def numpy_accumulate(index, q, query_index):
    """The accumulator in numpy, one gather and one ``np.add.at`` per
    Hamming distance: the oracle for the compiled kernel's int32 votes,
    probe count and (id, vote) pairs scanned (the total length of the
    ``tables.bucket`` gathers over the same probe list)."""
    tables = index.tables
    bits = tables.bits
    codes = hash_codes_all(tables.projections, bits, q[np.newaxis, :])[0]
    budgets = index.budgets
    ncodes, hdists = neighbor_codes_with_distance(
        codes, int(budgets.max()), bits, _probe_rng(index.params, query_index)
    )
    probes = np.column_stack((codes, ncodes))
    dists = np.concatenate(([0], hdists))
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
    votes, probes, pairs = _accumulate(index, q, query_index)
    want_votes, want_probes, want_pairs = numpy_accumulate(index, q, query_index)
    assert votes.dtype == np.int32
    assert np.array_equal(votes, want_votes)
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
    assert int((built.budgets + 1).sum()) == 4096
    assert np.count_nonzero(np.diff(built.tables.offsets, axis=1)) > 3 * 1024
    path = tmp_path / "tiles.boix"
    save_index(built, path)
    loaded = load_index(path, data)
    # loaded member rows are strided views into the snapshot's table records
    assert loaded.tables.members.strides[0] > 4 * data.n
    for index in (built, loaded):
        for query_index in range(3):
            q = rng.standard_normal(16).astype(np.float32)
            votes, probes, pairs = _accumulate(index, q, query_index)
            want = numpy_accumulate(index, q, query_index)
            assert np.array_equal(votes, want[0])
            assert (probes, pairs) == want[1:] == (4096, 16 * data.n)


class TestCorruptTables:
    """A table whose probed offsets or ids leave their range raises
    ValueError from the kernel instead of reading out of bounds or
    answering wrongly."""

    @pytest.mark.parametrize(
        "offsets, members",
        [
            ([0, 2, 4], [0, 1, 2, 4]),  # id equal to n
            ([0, 2, 4], [0, 1, 2, -1]),  # negative id
            ([0, 3, 2], [0, 1, 2, 3]),  # decreasing offsets
            ([0, 2, 5], [0, 1, 2, 3]),  # offset past n
            ([-1, 2, 4], [0, 1, 2, 3]),  # negative offset
        ],
        ids=["id=n", "id=-1", "decreasing", "past-n", "negative"],
    )
    def test_query_raises(self, offsets, members):
        data = VectorSet(np.arange(8, dtype=np.float32).reshape(4, 2))
        tables = ProjectionTable(
            np.array([[1.0, -1.0]]),
            np.array([offsets], dtype=np.int64),
            np.array([members], dtype=np.int32),
        )
        params = BoiParams(
            num_tables=1, hash_bits=1, initial_probe_count=1, schedule="fixed"
        )
        index = BoiIndex(params, tables, data)  # probes both buckets
        with pytest.raises(ValueError, match="corrupt hash table"):
            query(index, data.vectors[0], 2)

    @pytest.mark.parametrize("bad", [20_000, -1], ids=["id=n", "id=-1"])
    def test_bad_id_in_last_tile_raises(self, bad):
        # the kernel sweeps ids in tiles of 8192; the bad id is the last id
        # of a bucket, in the third and last tile of 20k records
        n = 20_000
        data = VectorSet(np.zeros((n, 2), dtype=np.float32))
        members = np.arange(n, dtype=np.int32)
        members[-1] = bad
        tables = ProjectionTable(
            np.array([[1.0, -1.0]]),
            np.array([[0, n // 2, n]], dtype=np.int32),
            members[np.newaxis, :],
        )
        params = BoiParams(
            num_tables=1, hash_bits=1, initial_probe_count=1, schedule="fixed"
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
