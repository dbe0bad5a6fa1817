import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boi.core import (
    _DIST_CHUNK_BYTES,
    BoiParams,
    RankedResult,
    VectorSet,
    dense_vector,
    pairwise_distances,
    rank_by_distance,
    rerank,
)


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


def subtract_then_sum(rows, q):
    """The distance expression before the chunk buffer: a float64
    difference per call, then ``einsum`` and ``sqrt``, each row measured
    inside an operand of two rows or more (the rows twice over)."""
    rows = np.concatenate([rows, rows])
    diff = np.subtract(rows, np.asarray(q, dtype=np.float64), dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))[: len(rows) // 2]


# one row fills the buffer at the widest dimension, so every chunk is the
# two-row minimum; numpy's einsum sums a row of more than 8192 values in
# 8192-value blocks when the row is alone, and in one pass otherwise, so a
# lone row must be measured beside another
WIDE = _DIST_CHUNK_BYTES // 8 + 1


@pytest.mark.parametrize("dim", [1, 7, 128, 10_000, WIDE])
def test_pairwise_distances_match_the_subtraction_bitwise(dim):
    c = max(2, _DIST_CHUNK_BYTES // (8 * dim))  # rows per chunk
    rng = np.random.default_rng(dim)
    q = rng.standard_normal(dim).astype(np.float32)
    for n in sorted({0, 1, c - 1, c, c + 1, 3 * c + 5}):
        rows = (rng.standard_normal((n, dim)) * 10).astype(np.float32)
        got = pairwise_distances(rows, q)
        want = subtract_then_sum(rows, q)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


def test_one_candidate_rerank_at_dim_8193_measures_as_in_a_larger_call():
    # a lone row one value past einsum's 8192-value block: 2 of these 10
    # seeds gave it different last bits when it was measured alone
    for seed in range(10):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((3, 8193)).astype(np.float32)
        q = rng.standard_normal(8193).astype(np.float32)
        inside = pairwise_distances(vectors, q)[1:2]
        alone = rerank(vectors, np.array([1]), q, 1, probe_count=0, pairs_scanned=0)
        assert alone.ids.tolist() == [1]
        assert np.array_equal(alone.distances.view(np.uint64), inside.view(np.uint64))


def test_pairwise_distances_of_extreme_values_stay_finite():
    # float32's largest values square and sum in float64 without overflow
    big = np.finfo(np.float32).max
    rows = np.array([[big, -big], [-big, big], [0.0, 0.0]], dtype=np.float32)
    got = pairwise_distances(rows, np.array([-big, big], dtype=np.float32))
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, subtract_then_sum(rows, [-big, big]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    dim=st.integers(1, 6),
    m=st.integers(0, 40),
    k=st.integers(1, 45),
    seed=st.integers(0, 2**32 - 1),
)
def test_rerank_result_equals_a_checked_result(n, dim, m, k, seed):
    # integer-valued rows give equal distances, so ties are ranked by id
    rng = np.random.default_rng(seed)
    vectors = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
    candidates = rng.permutation(n)[: min(m, n)].astype(np.int64)
    q = dense_vector(rng.integers(-2, 3, size=dim))
    got = rerank(vectors, candidates, q, k, probe_count=3, pairs_scanned=11)
    ids, dists = rank_by_distance(
        candidates, pairwise_distances(vectors[candidates], q), k
    )
    checked = RankedResult(
        ids,
        dists,
        probe_count=3,
        shortlist_size=int(candidates.size),
        pairs_scanned=11,
    )
    for field in ("ids", "distances"):
        a, b = getattr(got, field), getattr(checked, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable and not b.flags.writeable
    assert (got.probe_count, got.shortlist_size, got.pairs_scanned) == (
        checked.probe_count,
        checked.shortlist_size,
        checked.pairs_scanned,
    )
