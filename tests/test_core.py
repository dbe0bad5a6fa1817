import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boi.core import (
    _FINITE_CHUNK,
    BoiParams,
    RankedResult,
    VectorSet,
    brute_force_query,
    dense_vector,
    pairwise_distances,
    rank_by_distance,
)
from boi.index import accumulate, build_index, query, shortlist
from boi.synth import SynthSpec, generate
from boi.vote import nearest_rows


def l2_distance(a, b) -> float:
    """Distance between two descriptors: ``pairwise_distances`` of one row."""
    rows = np.array([a], dtype=np.float32)
    return float(pairwise_distances(rows, np.asarray(b, dtype=np.float32))[0])


class TestL2Distance:
    def test_identity(self):
        assert l2_distance((0.0, 0.0), (0.0, 0.0)) == 0.0

    def test_3_4_5_triangle(self):
        assert l2_distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_hand_evaluated(self):
        # sqrt((4-1)^2 + (6-2)^2 + (3-3)^2) = sqrt(9 + 16 + 0) = 5
        assert l2_distance((1.0, 2.0, 3.0), (4.0, 6.0, 3.0)) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            l2_distance((1.0, 2.0), (1.0, 2.0, 3.0))

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.standard_normal(8).astype(np.float32)
            b = rng.standard_normal(8).astype(np.float32)
            assert l2_distance(a, b) == l2_distance(b, a)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(16).astype(np.float32)
        assert l2_distance(a, a) == 0.0
        b = a.copy()
        b[3] += 1e-3
        assert l2_distance(a, b) > 0.0


finite_components = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, width=32
)


@given(
    st.integers(2, 8).flatmap(
        lambda d: st.tuples(
            st.lists(finite_components, min_size=d, max_size=d),
            st.lists(finite_components, min_size=d, max_size=d),
            st.lists(finite_components, min_size=d, max_size=d),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_triangle_inequality(triple):
    a, b, c = triple
    ac = l2_distance(a, c)
    ab = l2_distance(a, b)
    bc = l2_distance(b, c)
    assert ac <= ab + bc + 1e-6 * max(ac, ab + bc, 1.0)


class TestDenseVector:
    def test_basic(self):
        v = dense_vector([1.0, 2.0])
        assert v.dtype == np.float32 and v.shape == (2,)

    @pytest.mark.parametrize("bad", [[], [[1.0, 2.0]], [1.0, np.inf], [np.nan]])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            dense_vector(bad)


class TestVectorSet:
    def test_ids_are_positions(self):
        vs = VectorSet(np.arange(6, dtype=np.float32).reshape(3, 2))
        assert vs.n == 3 and vs.dim == 2 and len(vs) == 3
        assert np.array_equal(vs.vectors[1], [2.0, 3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            VectorSet(np.array([[1.0, np.inf]], dtype=np.float32))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            VectorSet(np.zeros(4, dtype=np.float32))

    def test_immutable(self):
        vs = VectorSet(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            vs.vectors[0, 0] = 1.0

    def test_empty(self):
        vs = VectorSet(np.empty((0, 0), dtype=np.float32))
        assert vs.n == 0


class TestBoiParams:
    def test_defaults_match_reference_configuration(self):
        p = BoiParams()
        assert p.num_tables == 100
        assert p.hash_bits == 8 and p.num_buckets == 256
        assert p.probe_radius == 1
        assert p.shortlist_size == 250
        assert p.initial_probe_count == 10
        assert p.schedule == "sublinear"
        assert p.linear_step == 40
        assert p.sublinear_step == 25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hash_bits": 0},
            {"hash_bits": 31},
            {"shortlist_size": 0},
            {"num_tables": 0},
            {"probe_radius": -1},
            {"initial_probe_count": 256},  # > 2**8 - 1
            {"schedule": "exponential"},
            {"linear_step": 0},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BoiParams(**kwargs)

    def test_hash_bits_capped_at_16(self):
        # codes are uint16 end to end
        assert BoiParams(hash_bits=16).num_buckets == 2**16
        with pytest.raises(ValueError, match=r"hash_bits must be in \[1, 16\]"):
            BoiParams(hash_bits=17)

    def test_votes_must_fit_int32(self):
        # a record collects up to num_tables * 2**hash_bits vote units
        BoiParams(num_tables=2**14, hash_bits=16)  # 2**30 units
        with pytest.raises(ValueError, match="2\\*\\*31"):
            BoiParams(num_tables=2**15, hash_bits=16)  # 2**31 units

    def test_gamma0_bound_follows_bits(self):
        BoiParams(hash_bits=2, initial_probe_count=3)
        with pytest.raises(ValueError):
            BoiParams(hash_bits=2, initial_probe_count=4)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("initial_probe_count", 2.5),
            ("linear_step", 1.5),
            ("sublinear_step", np.float64(2.0)),
            ("num_tables", True),
            ("shortlist_size", np.True_),
            ("seed", "7"),
            ("strict_radius", "no"),
            ("strict_radius", 1),
        ],
    )
    def test_rejects_non_integer_and_non_bool_values(self, name, value):
        with pytest.raises(ValueError, match=name):
            BoiParams(**{name: value})

    @pytest.mark.parametrize(
        "name", ["shortlist_size", "probe_radius", "linear_step", "sublinear_step"]
    )
    def test_u32_header_fields_stay_below_2_32(self, name):
        # save_index writes these four as u32
        assert getattr(BoiParams(**{name: 2**32 - 1}), name) == 2**32 - 1
        with pytest.raises(ValueError, match=name):
            BoiParams(**{name: 2**32})

    def test_numpy_integers_and_bools_are_stored_as_python_ones(self):
        p = BoiParams(
            num_tables=np.int32(2**15 - 1),
            hash_bits=np.uint8(16),
            shortlist_size=np.int64(5),
            strict_radius=np.True_,
        )
        assert p == BoiParams(
            num_tables=2**15 - 1, hash_bits=16, shortlist_size=5, strict_radius=True
        )
        assert type(p.num_tables) is int and type(p.strict_radius) is bool
        # an int32 product would wrap past 2**31 and pass the check
        with pytest.raises(ValueError, match="2\\*\\*31"):
            BoiParams(num_tables=np.int32(2**15), hash_bits=np.int32(16))


class TestRankedResult:
    def test_entries(self):
        r = RankedResult(np.array([4, 2]), np.array([0.5, 1.5]))
        assert r.entries == [(4, 0.5), (2, 1.5)]
        assert len(r) == 2

    def test_rejects_decreasing_distances(self):
        with pytest.raises(ValueError):
            RankedResult(np.array([0, 1]), np.array([2.0, 1.0]))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            RankedResult(np.array([3, 3]), np.array([1.0, 1.0]))

    def test_empty(self):
        r = RankedResult.empty(probe_count=7)
        assert len(r) == 0 and r.probe_count == 7


class TestRankByDistance:
    def test_matches_sorted_oracle_with_ties(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            m = int(rng.integers(1, 40))
            ids = rng.permutation(100)[:m].astype(np.int64)
            # coarse grid forces distance ties
            dists = rng.integers(0, 4, size=m).astype(np.float64)
            k = int(rng.integers(1, m + 1))
            oracle = sorted(zip(dists, ids))[:k]
            got_ids, got_d = rank_by_distance(ids, dists, k)
            assert [(d, i) for d, i in zip(got_d, got_ids)] == oracle

    def test_k_larger_than_m(self):
        ids, d = rank_by_distance(np.array([5, 1]), np.array([2.0, 1.0]), 10)
        assert list(ids) == [1, 5]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            rank_by_distance(np.array([0]), np.array([0.0]), 0)


def test_pairwise_distances_subset_consistent():
    # gathering rows then measuring equals measuring then gathering, bitwise
    rng = np.random.default_rng(3)
    X = rng.standard_normal((64, 12)).astype(np.float32)
    q = rng.standard_normal(12).astype(np.float32)
    full = pairwise_distances(X, q)
    idx = rng.permutation(64)[:20]
    sub = pairwise_distances(X[idx], q)
    assert np.array_equal(full[idx], sub)


def fixed_order(rows, q):
    """The distances ``vote.c``'s ``distance`` sums, restated in numpy: the
    float64 differences of the float32 rows and the float64 query, squared;
    lane k of 8 adds the squares of columns i = k (mod 8), ascending, over
    the whole groups of 8; the lanes are added as ((l0 + l1) + (l2 + l3))
    + ((l4 + l5) + (l6 + l7)); then the squares past the groups, ascending;
    then the square root. Every numpy step is one correctly rounded float64
    operation per value, so the order alone decides the bits."""
    squares = np.square(np.asarray(rows, np.float32) - np.asarray(q, np.float64))
    n, dim = squares.shape
    whole = dim - dim % 8
    lane = np.zeros((n, 8))
    for i in range(0, whole, 8):
        lane += squares[:, i : i + 8]
    total = ((lane[:, 0] + lane[:, 1]) + (lane[:, 2] + lane[:, 3])) + (
        (lane[:, 4] + lane[:, 5]) + (lane[:, 6] + lane[:, 7])
    )
    for i in range(whole, dim):
        total = total + squares[:, i]
    return np.sqrt(total)


def bits_of(distances) -> bytes:
    return np.asarray(distances, np.float64).tobytes()


# 8,193 is one value past the 8,192-value blocks in which numpy's einsum
# sums a lone row, and 65,537 one past the values 512 KiB of float64 hold:
# a pass that chunked its rows or summed in blocks would change there
@pytest.mark.parametrize("dim", [1, 7, 128, 8193, 10_000, 65_537])
def test_pairwise_distances_match_the_subtraction_bitwise(dim):
    # every row count on either side of 512 KiB of float64 rows, and none
    c = max(2, (1 << 19) // (8 * dim))
    rng = np.random.default_rng(dim)
    q = rng.standard_normal(dim).astype(np.float32)
    for n in sorted({0, 1, c - 1, c, c + 1, 3 * c + 5}):
        rows = (rng.standard_normal((n, dim)) * 10).astype(np.float32)
        got = pairwise_distances(rows, q)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert bits_of(got) == bits_of(fixed_order(rows, q)), n
        # each row alone measures as inside the larger call
        for r in {0, n // 2, n - 1} if n else ():
            assert bits_of(pairwise_distances(rows[r : r + 1], q)) == bits_of(got[r : r + 1])


def test_one_candidate_rerank_at_dim_8193_measures_as_in_a_larger_call():
    # a query's compiled re-rank of a one-record shortlist, at one value
    # past einsum's 8192-value block, gives the record the fixed order's
    # bits, as pairwise_distances does inside a call over every row
    for seed in range(10):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((3, 8193)).astype(np.float32)
        q = rng.standard_normal(8193).astype(np.float32)
        params = BoiParams(
            num_tables=2, hash_bits=2, shortlist_size=1, initial_probe_count=3,
            schedule="fixed", seed=seed,
        )
        index = build_index(VectorSet(vectors), params)
        (one,) = shortlist(accumulate(index, q), 1)
        alone = query(index, q, 1)
        assert alone.ids.tolist() == [one] and alone.shortlist_size == 1
        inside = pairwise_distances(vectors, q)[one : one + 1]
        assert bits_of(alone.distances) == bits_of(inside)
        assert bits_of(inside) == bits_of(fixed_order(vectors[one : one + 1], q))


def test_pairwise_distances_of_extreme_values_stay_finite():
    # float32's largest values square and sum in float64 without overflow,
    # in the fixed order, at a width with whole lanes and a tail
    big = np.finfo(np.float32).max
    rows = np.array([[big, -big], [-big, big], [0.0, 0.0]], dtype=np.float32)
    q = np.array([-big, big], dtype=np.float32)
    got = pairwise_distances(rows, q)
    assert np.all(np.isfinite(got)) and got[1] == 0.0
    assert bits_of(got) == bits_of(fixed_order(rows, q))
    rng = np.random.default_rng(9)
    rows = (rng.choice([-1.0, 1.0], (4, 19)) * big).astype(np.float32)
    q = (rng.choice([-1.0, 0.0, 1.0], 19) * big).astype(np.float32)
    got = pairwise_distances(rows, q)
    assert np.all(np.isfinite(got))
    assert bits_of(got) == bits_of(fixed_order(rows, q))


def test_pairwise_distances_keep_a_float64_query_and_refuse_inexact_rows():
    # the query is measured as the float64 it is; rows are float32 exactly
    rows = np.array([[0.0], [1.0]], np.float32)
    got = pairwise_distances(rows, np.array([0.1]))
    assert got.tolist() == [0.1, 0.9]
    assert pairwise_distances(rows.astype(np.float64), [0.5]).tolist() == [0.5, 0.5]
    with pytest.raises(ValueError, match="rows values do not fit float32"):
        pairwise_distances(np.array([[0.1]]), [0.0])


def own_buckets_query(vectors, q, k, tables, bits, seed):
    """``query``'s answer when each of ``tables`` tables of ``bits`` bits
    probes only the query's own bucket and the shortlist holds every
    record found, and those records, ascending: the candidates its
    compiled re-rank measures."""
    params = BoiParams(
        num_tables=tables, hash_bits=bits, initial_probe_count=0,
        shortlist_size=len(vectors), seed=seed,
    )
    index = build_index(VectorSet(vectors), params)
    return query(index, q, k), np.flatnonzero(accumulate(index, q))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    dim=st.integers(1, 6),
    tables=st.integers(1, 3),
    bits=st.integers(1, 4),
    k=st.integers(1, 45),
    seed=st.integers(0, 2**32 - 1),
)
def test_rerank_result_equals_a_checked_result(n, dim, tables, bits, k, seed):
    # the compiled re-rank of the records that share a bucket with the
    # query equals a checked result of pairwise_distances and
    # rank_by_distance over them; integer-valued rows give equal
    # distances, so ties are ranked by id
    rng = np.random.default_rng(seed)
    vectors = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
    q = dense_vector(rng.integers(-2, 3, size=dim))
    got, candidates = own_buckets_query(vectors, q, k, tables, bits, seed)
    ids, dists = rank_by_distance(
        candidates, pairwise_distances(vectors[candidates], q), k
    )
    checked = RankedResult(
        ids,
        dists,
        probe_count=tables,
        shortlist_size=int(candidates.size),
        pairs_scanned=got.pairs_scanned,
    )
    for field in ("ids", "distances"):
        a, b = getattr(got, field), getattr(checked, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable and not b.flags.writeable
    assert (got.probe_count, got.shortlist_size) == (
        checked.probe_count,
        checked.shortlist_size,
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    dim=st.integers(1, 9),
    bits=st.integers(1, 3),
    k=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_rerank_ignores_the_order_of_its_candidates(n, dim, bits, k, seed):
    # the compiled shortlist hands its set over in no order: tables of four
    # seeds number the records in four internal orders, but a query that
    # probes the whole code space shortlists every record under each, and
    # must rank them to the same bits, the sorted (distance, id) pairs.
    # Small integer rows tie distances exactly, and half the rows repeat
    # another row
    rng = np.random.default_rng(seed)
    vectors = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
    copies = rng.integers(0, n, size=n // 2)
    vectors[rng.permutation(n)[: n // 2]] = vectors[copies]
    vectors[rng.random(n) < 0.3] += rng.standard_normal(dim).astype(np.float32)
    q = dense_vector(rng.integers(-2, 3, size=dim))
    answers = set()
    for tables_seed in range(4):
        params = BoiParams(
            num_tables=2, hash_bits=bits, initial_probe_count=2**bits - 1,
            schedule="fixed", shortlist_size=n, seed=tables_seed,
        )
        got = query(build_index(VectorSet(vectors), params), q, k)
        assert got.shortlist_size == n
        answers.add((got.ids.tobytes(), got.distances.tobytes()))
    assert len(answers) == 1
    want = sorted(zip(fixed_order(vectors, q).tolist(), range(n)))[:k]
    assert list(zip(got.distances.tolist(), got.ids.tolist())) == want


# The float32 filter in front of the exact distances (``vote.c``'s
# ``nearest``): brute force and a query's re-rank measure a row in float64
# only when its float32 distance, with its error bound, could still reach
# the k nearest so far. Each answer must be the bits of the unfiltered
# ``pairwise_distances`` ranked by ``rank_by_distance``.

FLT_MAX = float(np.finfo(np.float32).max)
FLT_TRUE_MIN = 2.0**-149  # float32's smallest subnormal


def filter_case(kind: str, n: int, dim: int, rng) -> np.ndarray:
    """n float32 rows of dim values of one ``kind``: ``normal`` at a random
    scale; ``ties``, small integers, half the rows copies of others, so
    distances tie at the k-th; ``huge``, multiples of float32's largest
    value, whose float32 differences and squares overflow; ``tiny``,
    multiples of its smallest subnormal, whose differences are subnormal and
    whose squares underflow to 0, or of 2**-94, whose squares round to a
    subnormal, a third of the rows moved 1.0 away so that the filter has
    rows to skip."""
    if kind == "normal":
        rows = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4)
    elif kind == "ties":
        rows = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
        rows[rng.permutation(n)[: n // 2]] = rows[rng.integers(0, n, size=n // 2)]
    elif kind == "huge":
        rows = rng.choice([-1.0, -0.5, 0.0, 0.75, 1.0], size=(n, dim)) * FLT_MAX
    else:
        step = rng.choice([FLT_TRUE_MIN, 2.0**-94])
        rows = rng.integers(-(2**20), 2**20, size=(n, dim)) * step
        rows[rng.random(n) < 1 / 3] += 1.0
    return rows.astype(np.float32)


def unfiltered(rows, q, k):
    """The checked answer: every row measured, then ranked."""
    return rank_by_distance(np.arange(len(rows)), pairwise_distances(rows, q), k)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["normal", "ties", "huge", "tiny"]),
    n=st.integers(2, 40),
    dim=st.sampled_from([1, 7, 8, 9, 129]),
    k_of=st.sampled_from(["1", "10", "n-1", "n", "n+3"]),
    on_a_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_filtered_scan_and_rerank_equal_the_unfiltered_bits(kind, n, dim, k_of, on_a_row, seed):
    # brute force, and a query that probes the whole code space and so
    # re-ranks every record, give the ids and distance bits of the
    # unfiltered pass, for a query drawn like the rows or equal to one of
    # them (distance 0)
    rng = np.random.default_rng(seed)
    k = {"1": 1, "10": 10, "n-1": n - 1, "n": n, "n+3": n + 3}[k_of]
    rows = filter_case(kind, n, dim, rng)
    q = rows[rng.integers(n)].copy() if on_a_row else filter_case(kind, 1, dim, rng)[0]
    ids, distances = unfiltered(rows, q, k)
    exact = brute_force_query(VectorSet(rows), q, k)
    assert exact.ids.tolist() == ids.tolist()
    assert bits_of(exact.distances) == bits_of(distances)
    params = BoiParams(
        num_tables=2, hash_bits=2, initial_probe_count=3, schedule="fixed",
        shortlist_size=n, seed=seed,
    )
    got = query(build_index(VectorSet(rows), params), q, k)
    assert got.shortlist_size == n
    assert got.ids.tolist() == ids.tolist()
    assert bits_of(got.distances) == bits_of(distances)


def test_rows_tied_at_the_kth_distance_are_all_measured():
    # copies of one row tie at every rank, so none can be skipped and the
    # lowest ids win; a far row is skipped once the heap holds the ties
    rows = np.zeros((12, 9), np.float32)
    rows[:] = np.arange(9, dtype=np.float32)
    rows[5] += 100.0
    q = np.full(9, 0.5, np.float32)
    ids, distances, measured = nearest_rows(rows, q, 4)
    assert ids.tolist() == [0, 1, 2, 3]
    assert len(set(distances.tolist())) == 1
    assert measured == 11


def test_the_filter_skips_every_row_that_cannot_reach_the_k_nearest():
    # rows whose distance doubles from one to the next are measured only
    # while the heap fills; rows ever nearer each enter it, so all are
    # measured; the answers are the unfiltered ones either way
    k, dim = 5, 8
    scales = 2.0 ** np.arange(40)
    rising = (scales[:, None] * np.ones(dim)).astype(np.float32)
    q = np.zeros(dim, np.float32)
    for rows, want in ((rising, k), (rising[::-1].copy(), len(rising))):
        ids, distances, measured = nearest_rows(rows, q, k)
        assert measured == want
        checked_ids, checked = unfiltered(rows, q, k)
        assert ids.tolist() == checked_ids.tolist()
        assert bits_of(distances) == bits_of(checked)


def test_rows_within_the_bound_of_the_kth_distance_are_measured():
    # at dim 1 the k-th distance 1.0 squares to 1.0, and row 1 + j * 2**-23
    # squares in float32 to 1 + j * 2**-22; the bound's margin on a square
    # is (1 + 2**-20) / (1 - 3 * 2**-24) - 1, about 1.19 * 2**-20, so rows
    # j = 1..4 are measured (and do not enter), and rows j = 5..8 not
    rows = (1.0 + np.arange(9) * 2.0**-23).astype(np.float32)[:, None]
    q = np.zeros(1, np.float32)
    ids, distances, measured = nearest_rows(rows, q, 1)
    assert ids.tolist() == [0] and distances.tolist() == [1.0]
    assert measured == 5


def test_a_square_that_underflows_upward_does_not_hide_a_nearer_row():
    # both rows' float32 squares, 0.8 and 0.7 times 2**-149, round up to
    # 2**-149, above the first row's exact square: only the underflow term
    # of the bound keeps the second, nearer row from being skipped
    rows = np.array([[0.8**0.5 * 2.0**-74.5], [0.7**0.5 * 2.0**-74.5]], np.float32)
    q = np.zeros(1, np.float32)
    assert (rows.astype(np.float32) ** 2).tolist() == [[2.0**-149]] * 2
    ids, distances, measured = nearest_rows(rows, q, 1)
    assert ids.tolist() == [1] and measured == 2
    checked_ids, checked = unfiltered(rows, q, 1)
    assert ids.tolist() == checked_ids.tolist()
    assert bits_of(distances) == bits_of(checked)


def test_brute_force_measures_under_two_percent_of_a_clustered_set():
    # a bound that stopped filtering would still answer right; this count
    # is what shows it. On 32 tight clusters of 20k rows, each query's
    # scan measures its heap's first 10 rows and the few that can still
    # reach its 10 nearest
    database, queries, truth = generate(
        SynthSpec(n=20_000, dim=128, num_queries=20, seed=3, gt_k=10)
    )
    for q, want in zip(queries.vectors, truth.neighbors):
        ids, distances, measured = nearest_rows(database.vectors, q, 10)
        assert ids.tolist() == want.tolist()
        assert 10 <= measured < 0.02 * database.n
        checked_ids, checked = unfiltered(database.vectors, q, 10)
        assert ids.tolist() == checked_ids.tolist()
        assert bits_of(distances) == bits_of(checked)


def test_nearest_rows_refuses_a_negative_k_and_ranks_none_at_zero():
    rows = np.ones((3, 2), np.float32)
    q = np.zeros(2, np.float32)
    with pytest.raises(ValueError, match="k must be >= 0"):
        nearest_rows(rows, q, -1)
    ids, distances, measured = nearest_rows(rows, q, 0)
    assert ids.size == distances.size == measured == 0
    with pytest.raises(ValueError, match="float32"):
        nearest_rows(rows.astype(np.float64), q, 1)


def test_a_non_finite_value_in_the_last_row_of_many_chunks_raises():
    # the finiteness check reads a chunk of rows at a time, the last one
    # short, and every chunk counts
    dim = 16
    rows = _FINITE_CHUNK // dim
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((3 * rows + 5, dim), np.float32)
        assert VectorSet(x.copy()).n == 3 * rows + 5
        for row in (rows - 1, rows, 3 * rows + 4):
            x[row, dim - 1] = bad
            with pytest.raises(ValueError, match="vector components must be finite"):
                VectorSet(x)
            x[row, dim - 1] = 0.0
