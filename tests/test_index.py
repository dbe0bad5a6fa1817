import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boi
from boi import vote
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
    _ball_plan,
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
    words = (L, 1, max(1, 2**bits // 64))  # one page of no records
    empty_tables = ProjectionTable(
        np.zeros((L * bits, 1)),
        np.zeros(words, dtype=np.uint64),
        np.zeros(L, dtype=np.int32),
        np.zeros((L, 0), dtype=np.uint16),
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
    """``_accumulate`` over the index's own probe plan: a copy of the
    internal-order votes it leaves in the thread's scratch, which is then
    cleared, the probe count and the pairs scanned."""
    scratch, probes, pairs = _accumulate(index.tables, q, index.plan)
    votes = scratch.votes.copy()
    scratch.clear()
    return votes, probes, pairs


def oracle_rows(index, q) -> np.ndarray:
    """The index's probe rows for ``q`` by the plain-Python oracle
    (``probe_rows.margin_rows``), from the codes and dot products the hash
    leaves in the thread's scratch."""
    tables = index.tables
    scratch = tables.scratch()
    codes = scratch.hash(q)
    plan = index.plan
    rows = margin_rows(codes, scratch.dots[:, 0], plan.masks, plan.budgets, tables.bits)
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
        assert shortlist(np.array([1, 6, 0, 3], np.int32), 2).tolist() == [1, 3]

    def test_tie_broken_by_id(self):
        assert shortlist(np.array([2, 2, 2], np.int32), 2).tolist() == [0, 1]

    def test_zero_weights_excluded(self):
        assert shortlist(np.zeros(10, np.int32), 250).size == 0

    def test_fewer_nonzero_than_requested(self):
        assert shortlist(np.array([0, 4, 0], np.int32), 5).tolist() == [1]

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64, np.float64])
    def test_refuses_weights_other_than_int32_votes(self, dtype):
        # a uint vote would negate to 2**N - w and a float is no vote:
        # either would give a wrong list, so each is refused by its dtype
        with pytest.raises(ValueError, match=f"int32 votes, got {np.dtype(dtype)}"):
            shortlist(np.array([1, 6, 0, 3], dtype), 2)

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
            # the int32 votes of the accumulator and the baselines
            w = votes.astype(np.int32)
            for eps in sizes + [1, max(n - 1, 1), n, n + 1, 2 * n]:
                got = shortlist(w, eps)
                assert got.tolist() == oracle[:eps], (n, eps)

    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            shortlist(np.array([1], np.int32), 0)

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


def tables_of(n: int) -> ProjectionTable:
    """Tables over n random records, whose ``order`` is not the identity."""
    rng = np.random.default_rng(n)
    data = VectorSet(rng.standard_normal((n, 4)).astype(np.float32))
    params = BoiParams(num_tables=2, hash_bits=4, initial_probe_count=1, seed=n)
    return build_index(data, params).tables


def take_and_shortlist(tables, votes, eps) -> int:
    """What the touched pass makes of hand-built internal-order ``votes``
    in the thread's scratch: m, after checking that it took out each
    non-zero vote's record id and vote in ascending internal id and left
    the votes zero, or -1, after checking that it left them as they were.
    Then the same votes, taken out with the shortlist's selection as a
    query takes them, touched or dense, must give the set of
    ``shortlist(votes, eps, order)`` with each pair's own vote, and leave
    the votes zero."""
    scratch = tables.scratch()
    scratch.votes[:] = votes
    m = scratch.take()
    if m >= 0:
        touched = np.flatnonzero(votes)
        assert m == touched.size
        assert scratch.ids[:m].tolist() == tables.order[touched].tolist()
        assert scratch.weights[:m].tolist() == votes[touched].tolist()
        assert not scratch.votes.any()
    else:
        assert scratch.votes.tolist() == votes.tolist()
        scratch.clear()
    scratch.votes[:] = votes
    count = scratch.take(eps)
    want = shortlist(votes, eps, tables.order)
    got = scratch.ids[:count]
    assert sorted(got.tolist()) == sorted(want.tolist())
    records = np.zeros(tables.n, np.int64)
    records[tables.order] = votes
    assert scratch.weights[:count].tolist() == records[got].tolist()
    assert not scratch.votes.any()
    return m


class TestTouchedPass:
    """The votes go to the shortlist as touched (record id, vote) pairs
    while at most a quarter of their 64-id blocks hold one, and dense
    otherwise; either way the shortlist is ``shortlist(votes, eps,
    order)``. n = 1044 holds 16 blocks of 64 ids and a tail block of 20:
    a quarter of the 17 blocks is 4."""

    N = 64 * 16 + 20

    def votes_in(self, blocks, per_block=64, value=3) -> np.ndarray:
        votes = np.zeros(self.N, np.int32)
        for b in blocks:
            ids = np.arange(64 * b, min(64 * b + 64, self.N))
            votes[ids[:per_block]] = value + ids[:per_block] % 5
        return votes

    def test_exactly_the_share_is_touched_and_one_block_more_is_dense(self):
        tables = tables_of(self.N)
        # every id of four blocks: 212 pairs with the 20-id tail block
        # among them, and 256, the pairs' whole room, without it
        for eps in (1, 10, 250, self.N):
            assert take_and_shortlist(tables, self.votes_in([0, 5, 9, 16]), eps) == 212
            assert take_and_shortlist(tables, self.votes_in([0, 5, 9, 16, 12]), eps) == -1
            assert take_and_shortlist(tables, self.votes_in([1, 2, 3, 4]), eps) == 256
            assert take_and_shortlist(tables, self.votes_in([1, 2, 3, 4, 5], 1), eps) == -1

    def test_a_touched_id_in_the_tail_block(self):
        tables = tables_of(self.N)
        votes = np.zeros(self.N, np.int32)
        votes[[self.N - 1, 3, 700]] = [8, 2, 8]
        assert take_and_shortlist(tables, votes, 2) == 3
        assert take_and_shortlist(tables, votes, 10) == 3

    def test_no_vote_gives_no_candidate(self):
        for n in (1, 63, 64, self.N):
            tables = tables_of(n)
            assert take_and_shortlist(tables, np.zeros(n, np.int32), 5) == 0
            assert tables.scratch().take(5) == 0

    def test_fewer_touched_than_the_shortlist(self):
        tables = tables_of(self.N)
        votes = np.zeros(self.N, np.int32)
        votes[[40, 41, 900]] = [1, 6, 1]
        assert take_and_shortlist(tables, votes, 250) == 3

    def test_a_tie_group_at_the_cut(self):
        # five leaders, then 30 ids tied at the cut of 10: the five tied
        # records of lowest record id are kept
        tables = tables_of(self.N)
        votes = np.zeros(self.N, np.int32)
        votes[np.arange(64, 94)] = 7
        votes[[0, 65, 200, 201, 1040]] = 9
        assert take_and_shortlist(tables, votes, 10) == 34

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 255, 256, 300, 1044, 5000])
    def test_random_votes_of_every_density(self, n):
        tables = tables_of(n)
        rng = np.random.default_rng(n + 1)
        paths = set()
        for touched in (0.0, 0.002, 0.01, 0.05, 0.2, 1.0):
            for _ in range(5):
                votes = rng.integers(1, 4, n) * (rng.random(n) < touched)
                for eps in (1, 5, max(n // 3, 1), n):
                    paths.add(take_and_shortlist(tables, votes.astype(np.int32), eps) >= 0)
        assert paths == {True, False}


class TestTouchedShortlist:
    """The compiled selection of the shortlist's set from the touched
    pairs, one histogram cut and one heap among the pairs in the cut's
    bin, against ``shortlist(votes, eps, order)`` as the oracle
    (``take_and_shortlist``), over the 1044 votes of ``TestTouchedPass``:
    256 pairs of room, and a tail block of 20 ids. Every case's votes lie
    in at most 4 of the 17 blocks, so they are taken out."""

    N = TestTouchedPass.N

    def votes_at(self, ids, values) -> np.ndarray:
        votes = np.zeros(self.N, np.int32)
        votes[ids] = values
        return votes

    def test_no_more_pairs_than_the_shortlist_and_a_shortlist_of_one(self):
        tables = tables_of(self.N)
        votes = self.votes_at([3, 500, 1040], [4, 9, 4])
        for eps in (1, 2, 3, 250):
            assert take_and_shortlist(tables, votes, eps) == 3
        # a shortlist of one among tied leaders keeps the lowest record id
        votes = self.votes_at(np.arange(0, 256, 7), 6)
        assert take_and_shortlist(tables, votes, 1) == 37

    def test_a_tie_group_larger_than_the_slots_left(self):
        tables = tables_of(self.N)
        votes = self.votes_at(np.arange(70, 250), 7)
        votes[[5, 150, 251]] = [9, 8, 12]
        for eps in (4, 5, 50, 181):
            assert take_and_shortlist(tables, votes, eps) == 182

    def test_every_pair_tied(self):
        tables = tables_of(self.N)
        votes = self.votes_at(np.arange(20, 220), 5)
        for eps in (1, 17, 199, 200, 201):
            assert take_and_shortlist(tables, votes, eps) == 200

    def test_several_votes_share_the_cuts_bin(self):
        # a top vote of 2**20 sorts the votes into bins of 2**10: the cut
        # falls among votes 700 * 2**10 + {0, 3, 5, 1000, 1023}, one bin,
        # several ids each, under leaders of other bins
        tables = tables_of(self.N)
        ids = np.arange(64, 256)
        offsets = np.array([0, 3, 5, 1000, 1023])[ids % 5]
        votes = self.votes_at(ids, 700 * 2**10 + offsets)
        votes[[1, 2, 3]] = [2**20, 900 * 2**10, 701 * 2**10]
        for eps in (3, 4, 10, 50, 100, 150, 194):
            assert take_and_shortlist(tables, votes, eps) == 195

    def test_a_shortlist_at_or_past_the_pairs_room(self):
        tables = tables_of(self.N)
        capacity = vote.touched_capacity(self.N)
        assert capacity == 256
        votes = self.votes_at(np.arange(64 * 4), np.arange(256) % 9 + 1)
        for eps in (capacity - 1, capacity, capacity + 1, 2**40):
            assert take_and_shortlist(tables, votes, eps) == 256

    def test_votes_in_the_tail_block(self):
        tables = tables_of(self.N)
        tail = np.arange(1024, 1044)
        votes = self.votes_at(tail, tail % 3 + 1)
        votes[[0, 64]] = [2, 3]
        for eps in (1, 5, 8, 21, 22, 23):
            assert take_and_shortlist(tables, votes, eps) == 22

    def test_a_vote_wrapped_negative_never_qualifies(self):
        # an int32 sum past 2**31 - 1 reads negative; like the shortlist,
        # the selection keeps only positive votes
        tables = tables_of(self.N)
        votes = self.votes_at([10, 20, 30, 40], [2**31 - 1, -(2**30), -5, 3])
        for eps in (1, 2, 3, 4):
            assert take_and_shortlist(tables, votes, eps) == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_random_votes_of_every_spread(self, seed):
        rng = np.random.default_rng(seed)
        tables = tables_of(self.N)
        for top in (3, 2000, 2**16, 2**24, 2**31 - 1):
            ids = rng.permutation(256)
            votes = self.votes_at(ids, rng.integers(1, top + 1, 256))
            # a tie group at some vote, so the cut often falls inside it
            votes[ids[:40]] = votes[ids[40]]
            for eps in (1, 13, 40, 41, 128, 255):
                assert take_and_shortlist(tables, votes, eps) == 256


class TestDenseShortlist:
    """The compiled selection of the shortlist's set from dense votes, more
    than a quarter of whose 64-id blocks hold one (``take`` returns -1 for
    them), against ``shortlist(votes, eps, order)`` as the oracle
    (``take_and_shortlist``): the histogram cut of every 16th vote sets a
    floor that lets a few votes through, and the touched pairs' cut and
    heap select among them; when that sample misleads, every vote streams
    through the same heap instead. n = 1044 holds 256 pairs of room until
    a longer shortlist grows it."""

    N = TestTouchedPass.N

    def sizes(self, n) -> list:
        capacity = vote.touched_capacity(n)
        return sorted({1, 2, 10, n // 2, capacity, capacity + 1, n - 1, n, n + 7} - {0})

    @pytest.mark.parametrize("n", [1, 15, 63, 1044])
    def test_every_vote_equal(self, n):
        tables = tables_of(n)
        for eps in self.sizes(n):
            assert take_and_shortlist(tables, np.full(n, 5, np.int32), eps) == -1

    @pytest.mark.parametrize("n", [1, 15, 63, 1044])
    def test_heavy_ties_at_the_cut(self, n):
        # three vote values under a few leaders: every cut falls in a tie
        # group of about n / 3 ids
        tables = tables_of(n)
        rng = np.random.default_rng(n)
        votes = rng.integers(1, 4, n).astype(np.int32)
        votes[rng.permutation(n)[:3]] = [9, 9, 7][: n]
        for eps in self.sizes(n):
            assert take_and_shortlist(tables, votes, eps) == -1

    def test_a_shortlist_past_the_touched_capacity_grows_the_pairs(self):
        tables = tables_of(self.N)
        scratch = tables.scratch()
        votes = (np.arange(self.N) % 7 + 1).astype(np.int32)
        assert len(scratch.ids) == vote.touched_capacity(self.N) == 256
        for eps in (257, 600, self.N, 5000):
            assert take_and_shortlist(tables, votes, eps) == -1
            assert len(scratch.ids) == len(scratch.weights) == min(eps, self.N)
        # the grown pairs serve the touched path too
        assert take_and_shortlist(tables, TestTouchedPass().votes_in([0, 5]), 100) == 128

    def test_top_votes_the_sample_misses(self):
        # the sample reads ids 0, 16, 32, ...: top votes at every other id
        # leave it a floor so low that every vote passes, more than the 256
        # pairs hold, and every vote streams through the heap
        tables = tables_of(self.N)
        ids = np.arange(self.N)
        votes = np.where(ids % 16 == 0, 1, 1 + (ids % 16 == 5) * (ids % 97)).astype(np.int32)
        for eps in (1, 5, 10, 11, 40, 255):
            assert take_and_shortlist(tables, votes, eps) == -1

    def test_top_votes_only_in_the_sample(self):
        # the sampled ids hold the only top votes: the floor lets those 66
        # through, fewer than the shortlist, and every vote streams through
        # the heap
        tables = tables_of(self.N)
        votes = np.full(self.N, 2, np.int32)
        votes[::16] = 9
        for eps in (67, 100, 255, 256, 257, 1043):
            assert take_and_shortlist(tables, votes, eps) == -1

    def test_several_votes_share_the_cuts_bin(self):
        # as in the touched case, a top vote of 2**20 makes bins of 2**10
        # and the cut falls among votes 700 * 2**10 + {0, 3, 5, 1000,
        # 1023}, several ids each, under leaders of other bins; here every
        # other vote is 1, so the votes are dense. The three leaders and
        # 12 of the 192 tied ids are sampled: for shortlists of 13 to 60
        # the sample's cut falls in the same bin, its floor lets the 195
        # pairs through, and the heap chooses among the 192. A shorter one
        # sets the floor above them and a longer one at 1, whose votes
        # overflow the 256 pairs, and every vote streams through the heap
        tables = tables_of(self.N)
        ids = np.arange(64, 256)
        offsets = np.array([0, 3, 5, 1000, 1023])[ids % 5]
        votes = np.ones(self.N, np.int32)
        votes[ids] = 700 * 2**10 + offsets
        votes[[0, 16, 32]] = [2**20, 900 * 2**10, 701 * 2**10]
        for eps in (3, 10, 13, 20, 50, 60, 61, 100, 194, 196):
            assert take_and_shortlist(tables, votes, eps) == -1

    def test_a_vote_wrapped_negative_never_qualifies(self):
        tables = tables_of(self.N)
        votes = np.full(self.N, 3, np.int32)
        votes[[10, 20, 30, 40]] = [2**31 - 1, -(2**30), -5, 0]
        for eps in (1, 2, 3, 300, self.N):
            assert take_and_shortlist(tables, votes, eps) == -1


@given(
    n=st.sampled_from([1, 15, 63, 64, 65, 256, 1044, 3000]),
    seed=st.integers(0, 2**32 - 1),
    top=st.sampled_from([1, 3, 255, 2**16, 2**31 - 1]),
    touched=st.floats(0.3, 1.0),
    eps=st.integers(1, 3200),
)
@settings(max_examples=150, deadline=None)
def test_dense_selection_matches_shortlist(n, seed, top, touched, eps):
    # dense votes of any spread, ties at every cut when the top is small
    rng = np.random.default_rng(seed)
    votes = rng.integers(1, top, n, endpoint=True) * (rng.random(n) < touched)
    take_and_shortlist(tables_of(n), votes.astype(np.int32), eps)


@given(
    n=st.sampled_from([256, 300, 1044, 3000]),
    seed=st.integers(0, 2**32 - 1),
    top=st.sampled_from([1, 3, 255, 2**16, 2**31 - 1]),
    touched=st.floats(0.05, 1.0),
    eps=st.integers(1, 3200),
)
@settings(max_examples=150, deadline=None)
def test_touched_selection_matches_shortlist(n, seed, top, touched, eps):
    # the votes of the dense twin above, confined to at most a quarter of
    # the 64-id blocks, so the touched pairs' cut and heap select the set
    rng = np.random.default_rng(seed)
    blocks = -(-n // 64)
    chosen = rng.permutation(blocks)[: rng.integers(1, blocks // 4, endpoint=True)]
    ids = (chosen[:, None] * 64 + np.arange(64)).ravel()
    ids = ids[ids < n]
    votes = np.zeros(n, np.int64)
    votes[ids] = rng.integers(1, top, ids.size, endpoint=True) * (rng.random(ids.size) < touched)
    assert take_and_shortlist(tables_of(n), votes.astype(np.int32), eps) >= 0


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


@pytest.mark.parametrize("bits", [8, 12])
def test_answers_do_not_follow_the_blas(monkeypatch, bits):
    # a query's dot products, whose margins order the partly probed shell,
    # come from vote.c in one fixed order: np.matmul, patched after the
    # build to move each product by one unit in the last place, is never
    # called by a query, and no answer, vote or shortlist changes. The
    # shortlist of accumulate's votes is the set query re-ranks
    rng = np.random.default_rng(40 + bits)
    data = VectorSet(rng.standard_normal((2_000, 16)).astype(np.float32))
    picks = rng.choice(data.n, 30, replace=False)
    queries = (data.vectors[picks] + 0.3 * rng.standard_normal((30, 16))).astype(np.float32)
    params = BoiParams(num_tables=24, hash_bits=bits, shortlist_size=80, seed=4)
    index = build_index(data, params)
    assert (index.plan.shells[:, 1] > 0).any()  # some shell is ordered by margin

    def answers():
        out = []
        for q in queries:
            res = query(index, q, 10)
            votes = accumulate(index, q)
            c = shortlist(votes, params.shortlist_size)
            ids = rank_by_distance(c, pairwise_distances(data.vectors[c], q), 10)[0]
            assert ids.tobytes() == res.ids.tobytes() and res.shortlist_size == c.size
            ball = multiprobe_lsh_query(index.tables, data, q, 1, 80, 10)
            out.append((res.ids.tobytes(), res.distances.tobytes(), res.pairs_scanned,
                        votes.tobytes(), ball.ids.tobytes()))
        return out

    before = answers()
    calls, matmul = [], np.matmul

    def nudged(*args, **kwargs):
        calls.append(1)
        product = matmul(*args, **kwargs)
        return np.nextafter(product, np.float32(np.inf), out=product)

    monkeypatch.setattr(np, "matmul", nudged)
    assert answers() == before
    assert calls == []


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
            # a negative id, -1 as a 16-bit id
            ([[0, 2, 4]] * 2, [[0, 1, 2, 3], [0, 1, 2, 2**16 - 1]]),
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
                np.array(members, dtype=np.uint16),
                np.arange(data.n),
            )
            index = BoiIndex(params, tables, data)  # probes both buckets
            query(index, data.vectors[0], 2)

    # -1 as a 16-bit id
    @pytest.mark.parametrize("bad", [20_000, 2**16 - 1], ids=["id=n", "id=-1"])
    def test_bad_id_in_last_tile_raises(self, bad):
        # the kernel sweeps ids in tiles of 8192; the bad id is the last id
        # of a bucket of table 1, in the third and last tile of 20k records
        n = 20_000
        data = VectorSet(np.zeros((n, 2), dtype=np.float32))
        members = np.tile(np.arange(n, dtype=np.uint16), (2, 1))
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


@pytest.fixture(scope="module")
def mixed_index():
    """3000 clustered records in 12-bit tables: some queries' votes lie in
    at most a quarter of their 64-id blocks and are taken out as touched
    pairs, the others' are read dense."""
    rng = np.random.default_rng(31)
    centers = rng.standard_normal((16, 16))
    points = centers[np.arange(3000) % 16] + 0.05 * rng.standard_normal((3000, 16))
    data = VectorSet(points.astype(np.float32))
    params = BoiParams(num_tables=10, hash_bits=12, shortlist_size=50, seed=4)
    return build_index(data, params), data


def answer(index, q, qi):
    """The votes ``accumulate`` gives and the ids and distances of ``query``."""
    res = query(index, q, 10, qi)
    return accumulate(index, q, qi).tobytes(), res.ids.tobytes(), res.distances.tobytes()


def test_threads_vote_like_one(small_index, mixed_index):
    # the kernel runs without the GIL; more threads than cores, switching
    # often, must give every query the votes and the answer a serial run
    # gives it, each thread voting in its own scratch. The small index's
    # votes are read dense, the mixed one's often as touched pairs
    for index, data in (small_index, mixed_index):
        queries = range(40)
        serial = [answer(index, data.vectors[qi], qi) for qi in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(answer, index, data.vectors[qi], qi) for qi in queries
                ]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


def test_each_thread_queries_with_its_own_scratch(mixed_index):
    tables = mixed_index[0].tables
    with ThreadPoolExecutor(max_workers=1) as pool:
        other = pool.submit(tables.scratch).result(timeout=60)
    mine = tables.scratch()
    assert mine is tables.scratch() and mine is not other
    assert mine.votes.shape == other.votes.shape == (tables.n,)


def test_a_dropped_index_is_freed_without_the_cycle_collector():
    # a table holds its threads' scratches, and a scratch holds the table's
    # arrays but not the table, so no cycle keeps a dropped index's arrays
    # until the cyclic collector runs
    rng = np.random.default_rng(5)
    data = VectorSet(rng.standard_normal((300, 8)).astype(np.float32))
    index = build_index(data, BoiParams(num_tables=4, hash_bits=6, shortlist_size=20))
    query(index, data.vectors[0], 3)
    tables = weakref.ref(index.tables)
    gc.disable()
    try:
        del index
        assert tables() is None
    finally:
        gc.enable()


def test_one_thread_keeps_the_scratches_of_two_indexes_apart(small_index, mixed_index):
    # queries of two indexes of different n, interleaved in one thread,
    # answer as each index's queries answer alone
    (a, a_data), (b, b_data) = small_index, mixed_index
    assert a.n != b.n
    alone_a = [answer(a, a_data.vectors[qi], qi) for qi in range(10)]
    alone_b = [answer(b, b_data.vectors[qi], qi) for qi in range(10)]
    for qi in range(10):
        assert answer(b, b_data.vectors[qi], qi) == alone_b[qi]
        assert answer(a, a_data.vectors[qi], qi) == alone_a[qi]
    assert a.tables.scratch().votes.size == a.n
    assert b.tables.scratch().votes.size == b.n


# a b = 16 index whose plan's rows are 17 masks wide, and its answers to
# ``query`` and to multi-probe LSH over the radius-3 ball, 697 masks wide
_PLAN_SWITCH = """
import numpy as np
import boi

rng = np.random.default_rng(36)
centers = rng.standard_normal((8, 16))
points = centers[np.arange(2000) % 8] + 0.2 * rng.standard_normal((2000, 16))
data = boi.VectorSet(points.astype(np.float32))
index = boi.build_index(
    data, boi.BoiParams(num_tables=12, hash_bits=16, shortlist_size=40, seed=3)
)
queries = data.vectors[:15] + 0.1 * rng.standard_normal((15, 16)).astype(np.float32)


def fields(res):
    return [res.ids.tolist(), res.distances.tobytes().hex(), res.probe_count,
            res.pairs_scanned, res.shortlist_size]


def boi_answers():
    return [fields(boi.query(index, q, 10)) for q in queries]


def ball_answers():
    return [fields(boi.multiprobe_lsh_query(index.tables, data, q, 3, 40, 10))
            for q in queries]
"""


def test_a_wider_plan_between_queries_leaves_every_answer_alone():
    # one thread queries with the index's plan, then the radius-3 ball,
    # whose rows regrow the scratch's probe buffer and rebind the compiled
    # call's block, then the index's plan again; a fresh process answers
    # each plan in a thread of its own, importing this process's boi
    env = dict(os.environ, PYTHONPATH=str(Path(boi.__file__).resolve().parent.parent))
    fresh = subprocess.run(
        [
            sys.executable, "-c",
            _PLAN_SWITCH + "import json, threading\n"
            "out = {'boi': boi_answers()}\n"
            "t = threading.Thread(target=lambda: out.update(ball=ball_answers()))\n"
            "t.start(); t.join()\n"
            "print(json.dumps(out))\n",
        ],
        capture_output=True, text=True, check=True, env=env,
    )
    want = json.loads(fresh.stdout)
    space = {}
    exec(_PLAN_SWITCH, space)
    index, scratch = space["index"], space["index"].tables.scratch()
    assert space["boi_answers"]() == want["boi"]
    assert scratch.probes.shape == (12, index.plan.width) == (12, 17)
    assert space["ball_answers"]() == want["ball"]
    assert scratch.probes.shape == (12, 697)
    assert space["boi_answers"]() == want["boi"]
    assert scratch.probes.shape == (12, 17)
    assert {len(set(a[0])) for a in want["boi"] + want["ball"]} == {10}


def test_the_one_call_refuses_shells_changed_after_binding(small_index):
    # the probe-row stage refuses the range inside the compiled call, before
    # any vote, and the next query answers as before
    index, data = small_index
    q = data.vectors[9]
    before = query(index, q, 5)
    plan = index.plan
    mine = vote.ProbePlan(plan.bits, plan.masks.copy(), plan.units.copy(), plan.budgets.copy())
    mine.shells.setflags(write=True)
    mine.shells[0] = [plan.width, 0]
    with pytest.raises(ValueError, match=r"shells must be ranges within"):
        index.tables.scratch().query(q, mine, 5, data.vectors, 5)
    again = query(index, q, 5)
    assert again.ids.tobytes() == before.ids.tobytes()
    assert again.distances.tobytes() == before.distances.tobytes()


def test_a_refused_shortlist_size_is_named_with_and_without_a_plan(small_index):
    # boi_query's -3 covers a shortlist size past the pairs' room as well
    # as a shell outside the row; the message names both, from the block
    # alone, before any plan is bound and after a query bound one
    index, data = small_index
    q = data.vectors[9]
    before = query(index, q, 5)
    for scratch in (vote.QueryScratch(index.tables), index.tables.scratch()):
        size = len(scratch.ids) + 1
        message = rf"shortlist size must be in \[0, {size - 1}\], got {size}"
        with pytest.raises(ValueError, match=message):
            scratch._stages(vote._TAKE, vote._RERANK, size)
    again = query(index, q, 5)
    assert again.ids.tobytes() == before.ids.tobytes()
    assert again.distances.tobytes() == before.distances.tobytes()


def dense(votes: np.ndarray) -> bool:
    """Whether more than a quarter of the 64-id blocks of ``votes`` hold a
    vote, so that the touched pass leaves them to the dense selection."""
    blocks = np.unique(np.flatnonzero(votes) // 64).size
    return blocks > -(-votes.size // 64) // 4


@pytest.mark.parametrize("bits", [8, 16])
def test_each_stage_run_alone_does_what_the_one_call_does(bits):
    # boi_query runs a range of one fixed sequence of stages: the scratch's
    # hash, rows, vote and take, each run alone, leave the codes, dot
    # products, probe rows, pairs scanned and shortlist's set that query's
    # one call leaves, under the index's plan and a radius-1 ball; the
    # index's plan votes densely at b = 8 and touches few blocks at b = 16.
    # The one call's re-rank ranks that set as the numpy statement of the
    # stage does, to the bit
    rng = np.random.default_rng(50 + bits)
    data = VectorSet(rng.standard_normal((5_000, 64)).astype(np.float32))
    params = BoiParams(num_tables=8, hash_bits=bits, shortlist_size=60, seed=6)
    index = build_index(data, params)
    queries = (data.vectors[:6] + 0.3 * rng.standard_normal((6, 64))).astype(np.float32)
    eps = params.shortlist_size
    scratch = index.tables.scratch()
    seen = set()
    for plan in (index.plan, _ball_plan(bits, params.num_tables, 1)):
        for q in queries:
            ranked, count, pairs = scratch.query(q, plan, eps, data.vectors, 10)
            fused = [a.tobytes() for a in (scratch.codes, scratch.dots, scratch.probes)]
            chosen = sorted(scratch.ids[:count].tolist())
            assert count > 0 and not scratch.votes.any()
            ids, dists = rank_by_distance(
                chosen, pairwise_distances(data.vectors[chosen], q), 10
            )
            assert ranked == min(10, count)
            assert scratch.nearest[:ranked].tobytes() == ids.tobytes()
            assert scratch.distances[:ranked].tobytes() == dists.tobytes()
            scratch.codes[:] = 0
            scratch.dots[:] = 0
            scratch.probes[:] = 0
            assert scratch.hash(q) is scratch.codes
            assert scratch.rows(plan) is scratch.probes
            staged = [a.tobytes() for a in (scratch.codes, scratch.dots, scratch.probes)]
            assert staged == fused
            assert scratch.vote(plan) == pairs
            if plan is index.plan:
                seen.add(dense(scratch.votes))
            m = scratch.take(eps)
            assert sorted(scratch.ids[:m].tolist()) == chosen
            assert not scratch.votes.any()
    assert seen == {bits == 8}


@pytest.mark.parametrize("first, last", [(-1, 2), (0, 6), (3, 2), (6, 6), (4, 3)])
def test_a_range_of_stages_that_is_not_one_is_refused(small_index, first, last):
    # the compiled call refuses the range before any stage runs, through
    # the scratch's one decoder of its statuses, and the votes a staged
    # query holds stay as they were
    index, data = small_index
    scratch = index.tables.scratch()
    scratch.hash(data.vectors[3])
    scratch.rows(index.plan)
    scratch.vote(index.plan)
    votes = scratch.votes.copy()
    assert votes.any()
    with pytest.raises(ValueError, match=r"range of its stages within \[0, 5\]"):
        scratch._stages(first, last)
    assert scratch.votes.tobytes() == votes.tobytes()
    assert scratch.take(5) > 0 and not scratch.votes.any()


def test_a_query_of_no_shortlist_is_refused(small_index):
    # the touched pass given no shortlist size would leave dense votes in
    # place, with no set to re-rank, so the one-call query refuses it, and
    # the touched pass alone refuses a negative size, before any call
    index, data = small_index
    scratch = index.tables.scratch()
    with pytest.raises(ValueError, match="shortlist_size must be >= 1, got 0"):
        scratch.query(data.vectors[3], index.plan, 0, data.vectors, 5)
    with pytest.raises(ValueError, match="shortlist_size must be >= 0, got -1"):
        scratch.take(-1)
    assert len(query(index, data.vectors[3], 5)) == 5


def test_a_query_that_raises_leaves_the_next_answer_alone():
    # records 0-3 lie in bucket 0 of both 1-bit tables and 4-7 in bucket 1,
    # but table 1's bucket 0 ends in id 8 = n. Query B probes bucket 0
    # alone: the kernel adds the votes of its good ids and then refuses
    # the table. Query A probes bucket 1; had B's votes stayed, A's full
    # shortlist would hold records 0-3 too
    n = 8
    points = [(0.0, 1.0 + r) for r in range(4)] + [(float(r), 0.0) for r in range(4, 8)]
    data = VectorSet(np.array(points, np.float32))
    members = np.array([range(n), [0, 1, 2, n, 4, 5, 6, 7]], np.int32)
    tables = ProjectionTable(
        np.tile([[1.0, -1.0]], (2, 1)),
        *directory(np.array([[0, 4, n]] * 2, np.int32)),
        members,
        np.arange(n),
    )
    params = BoiParams(
        num_tables=2, hash_bits=1, initial_probe_count=0, schedule="fixed",
        shortlist_size=n,
    )
    index = BoiIndex(params, tables, data)
    a, b = np.array([10.0, 0.0], np.float32), np.array([0.0, 10.0], np.float32)
    first = query(index, a, n)
    assert sorted(first.ids.tolist()) == [4, 5, 6, 7]
    for stage in (query, accumulate):
        with pytest.raises(ValueError, match="corrupt hash table"):
            stage(index, b, n)
        again = query(index, a, n)
        assert again.ids.tobytes() == first.ids.tobytes()
        assert again.distances.tobytes() == first.distances.tobytes()
        assert accumulate(index, a).tolist() == [0, 0, 0, 0, 4, 4, 4, 4]


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
        plan = vote.ProbePlan(3, masks, units, budgets)
        assert plan.shells.tolist() == [[4, 7], [0, 0], [1, 4], [0, 0], [0, 0]]
        assert (plan.width, plan.num_tables, plan.bits) == (7, 5, 3)
        for arr in (plan.masks, plan.units, plan.budgets, plan.shells):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_derived_shells_follow_the_searchsorted_rule(self, bits):
        # the rule the index bound shells by before the plan derived them:
        # the searchsorted range of dists[budgets[t]] over the plan's
        # distances, when the budget ends before the range's end
        def searchsorted_shells(dists, budgets):
            last = dists[budgets]
            lo = np.searchsorted(dists, last, side="left")
            hi = np.searchsorted(dists, last, side="right")
            return np.where((budgets + 1 < hi)[:, np.newaxis], np.stack([lo, hi], 1), 0)

        data = VectorSet(np.random.default_rng(bits).standard_normal((8, 4)).astype(np.float32))
        base = BoiParams(
            num_tables=12, hash_bits=bits, initial_probe_count=0, linear_step=2,
            sublinear_step=2, seed=3,
        )
        tables = build_index(data, base).tables
        top = (1 << bits) - 1
        gammas = sorted({g for g in (0, 1, 3, 10, min(50, top), top) if g <= top})
        for radius in range(4):
            for schedule in SCHEDULE_KINDS:
                for strict in (False, True):
                    for gamma in gammas:
                        params = dataclasses.replace(
                            base, probe_radius=radius, schedule=schedule,
                            strict_radius=strict, initial_probe_count=gamma,
                        )
                        plan = BoiIndex(params, tables).plan
                        masks, dists = probe_plan(bits, int(plan.budgets.max()))
                        assert plan.masks.tobytes() == masks.tobytes()
                        want = searchsorted_shells(dists, plan.budgets)
                        assert plan.shells.tolist() == want.tolist(), params
        for radius in range(bits + 1):
            plan = _ball_plan(bits, 12, radius)
            dists = probe_plan(bits, plan.width - 1)[1]
            want = searchsorted_shells(dists, plan.budgets)
            assert plan.shells.tolist() == want.tolist() == [[0, 0]] * 12

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
            scratch = index.tables.scratch()
            scratch.hash(q)
            got = boi.index.neighbor_codes_with_distance(scratch, index.plan)
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
        scratch = partial.tables.scratch()
        scratch.hash(q)
        assert not np.isfinite(scratch.dots).all()
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


class TestRerankStage:
    """``boi_query``'s last stage measures the shortlist's records where
    they lie in the base vectors and keeps the k nearest, ranked by
    (distance, record id), inside the one compiled call."""

    # records 2, 4, 6 and 7 tie at distance 3 from the origin, 5 lies at 1
    # and 1 at 0; 3 and 0 lie farthest
    POINTS = [(9, 9), (0, 0), (3, 0), (8, 8), (0, 3), (1, 0), (-3, 0), (0, -3)]
    ORDER = [1, 5, 2, 4, 6, 7, 3, 0]
    DISTANCES = [0.0, 1.0, 3.0, 3.0, 3.0, 3.0, math.sqrt(128), math.sqrt(162)]

    def test_ties_at_the_kth_distance_go_to_the_lowest_ids(self):
        # whatever the internal order the tables' seed numbers the records
        # in, and so the order the shortlist hands them over in
        data = VectorSet(np.array(self.POINTS, np.float32))
        q = np.zeros(2, np.float32)
        for seed in range(4):
            params = BoiParams(
                num_tables=3, hash_bits=2, initial_probe_count=3, schedule="fixed",
                shortlist_size=8, seed=seed,
            )
            index = build_index(data, params)
            for k in range(1, 9):
                got = query(index, q, k)
                ball = multiprobe_lsh_query(index.tables, data, q, 2, 8, k)
                for res in (got, ball):
                    assert res.ids.tolist() == self.ORDER[:k]
                    assert res.distances.tolist() == self.DISTANCES[:k]
                    assert res.shortlist_size == 8

    def test_k_at_or_above_the_shortlist_and_k_of_1(self, small_index):
        # a shortlist of 4 ranks all 4 for any k of 4 or more, and its
        # nearest alone for k = 1, as the numpy statement of the stage does
        index, data = small_index
        params = dataclasses.replace(index.params, shortlist_size=4)
        four = BoiIndex(params, index.tables, data)
        for qi in range(5):
            q = data.vectors[qi] + np.float32(0.1)
            c = shortlist(accumulate(four, q), 4)
            assert c.size == 4
            ids, dists = rank_by_distance(c, pairwise_distances(data.vectors[c], q), 4)
            for k in (1, 3, 4, 5, 400):
                res = query(four, q, k)
                assert len(res) == min(k, 4) and res.shortlist_size == 4
                assert res.ids.tobytes() == ids[:k].tobytes()
                assert res.distances.tobytes() == dists[:k].tobytes()

    def test_an_empty_shortlist_gives_an_empty_result(self):
        # every record lies opposite the query, so no table's own bucket
        # of the query holds one
        rng = np.random.default_rng(8)
        v = rng.standard_normal(6).astype(np.float32)
        data = VectorSet(np.tile(v, (20, 1)))
        params = BoiParams(num_tables=3, hash_bits=4, initial_probe_count=0, seed=2)
        index = build_index(data, params)
        for res in (
            query(index, -v, 5),
            multiprobe_lsh_query(index.tables, data, -v, 0, 10, 5),
        ):
            assert len(res) == 0 and res.shortlist_size == 0
            assert res.ids.dtype == np.int64 and res.distances.dtype == np.float64
        assert query(index, v, 5).ids.tolist() == [0, 1, 2, 3, 4]

    def test_two_threads_rank_as_one(self, mixed_index):
        # the re-rank reads the shared base vectors with the GIL released:
        # two threads, switching often, give every query the ids and
        # distance bits a serial run gives it, for boi and multi-probe LSH
        index, data = mixed_index

        def ranked(qi):
            q = data.vectors[qi] + np.float32(0.01)
            a = query(index, q, 10, qi)
            b = multiprobe_lsh_query(index.tables, data, q, 1, 40, 10)
            return [r.ids.tobytes() + r.distances.tobytes() for r in (a, b)]

        queries = range(0, 3000, 37)
        serial = [ranked(qi) for qi in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(ranked, queries, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_ranges_that_end_before_the_rerank_leave_its_results(self, small_index):
        # [0, last) for every last up to the re-rank leaves the results
        # alone; the re-rank run alone then ranks the set the touched pass
        # left, as the one call does
        index, data = small_index
        scratch = index.tables.scratch()
        q = data.vectors[3]
        ranked, count, _ = scratch.query(q, index.plan, 50, data.vectors, 5)
        want = scratch.nearest[:ranked].tobytes(), scratch.distances[:ranked].tobytes()
        for last in range(vote._RERANK + 1):
            scratch.nearest[:] = -1
            scratch.distances[:] = -1.0
            status = scratch._stages(vote._HASH, last, 50, 5)
            assert status == (count if last == vote._RERANK else 0)
            assert (scratch.nearest == -1).all() and (scratch.distances == -1.0).all()
        assert scratch._stages(vote._RERANK, vote._STAGES, 0, 5) == ranked
        got = scratch.nearest[:ranked].tobytes(), scratch.distances[:ranked].tobytes()
        assert got == want
        assert not scratch.votes.any()

    def test_every_refusal_of_the_rerank_is_decoded(self, mixed_index):
        # no base vectors bound, a negative k, and more records to rank than
        # the results hold, each refused by the compiled call and raised
        index, data = mixed_index
        fresh = vote.QueryScratch(index.tables)
        with pytest.raises(ValueError, match="the re-rank needs base vectors bound"):
            fresh._stages(vote._RERANK, vote._STAGES, 0, 5)
        assert fresh.query(data.vectors[0], index.plan, 1, data.vectors, 1)[0] == 1
        with pytest.raises(ValueError, match="a k of 0 or more"):
            fresh._stages(vote._RERANK, vote._STAGES, 0, -1)
        for qi in range(20):
            fresh.hash(data.vectors[qi])
            fresh.rows(index.plan)
            fresh.vote(index.plan)
            m = fresh.take()
            if m >= 2:
                break
            fresh.clear()
        assert m >= 2
        with pytest.raises(ValueError, match="room for its results: 1 of them"):
            fresh._stages(vote._RERANK, vote._STAGES, 0, 2)
        assert fresh._stages(vote._RERANK, vote._STAGES, 0, 1) == 1
        with pytest.raises(ValueError, match=r"range of its stages within \[0, 5\]"):
            fresh._stages(vote._RERANK, vote._STAGES + 1, 0, 1)
