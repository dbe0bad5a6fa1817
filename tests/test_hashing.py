from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided

from boi.core import BoiParams, VectorSet
from boi.hashing import (
    CODE_DTYPE,
    OFFSET_DTYPE,
    ProjectionTable,
    flip_masks,
    hash_codes_all,
    insert_all,
    make_projections,
    neighbor_codes_with_distance,
    occupancy_summary,
)


def hash_codes(rows, X) -> np.ndarray:
    """Codes of X under one table given by its (bits x dim) matrix."""
    proj = np.asarray(rows, dtype=np.float32)
    return hash_codes_all(proj, proj.shape[0], X)[:, 0]


def table_rows(tables: ProjectionTable, t: int) -> np.ndarray:
    """Table t's (bits x dim) block of the stacked projections."""
    return tables.projections[t * tables.bits : (t + 1) * tables.bits]


def empty_tables(params: BoiParams, dim: int) -> ProjectionTable:
    empty = VectorSet(np.empty((0, dim), dtype=np.float32))
    return insert_all(make_projections(params, dim), params.hash_bits, empty)


class TestMakeTables:
    def test_reference_shape(self):
        # 100 tables of 8x128 projections and 256 empty buckets
        params = BoiParams(num_tables=100, hash_bits=8, seed=9)
        tables = empty_tables(params, 128)
        assert tables.num_tables == 100
        for t in range(tables.num_tables):
            assert table_rows(tables, t).shape == (8, 128)
            assert tables.num_buckets == 256
            assert tables.n == 0
            assert np.all(np.diff(tables.offsets[t]) == 0)

    def test_seeded_determinism(self):
        params = BoiParams(num_tables=5, hash_bits=4, seed=1234)
        a = make_projections(params, 32)
        b = make_projections(params, 32)
        for t in range(params.num_tables):
            assert np.array_equal(a[4 * t : 4 * t + 4], b[4 * t : 4 * t + 4])

    def test_tables_are_independent(self):
        params = BoiParams(num_tables=3, hash_bits=4, seed=0)
        proj = make_projections(params, 16)
        assert not np.array_equal(proj[0:4], proj[4:8])

    def test_minimal(self):
        params = BoiParams(
            num_tables=1, hash_bits=1, initial_probe_count=0, seed=0
        )
        t = empty_tables(params, 1)
        assert t.projections.shape == (1, 1)
        assert t.num_buckets == 2

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            make_projections(BoiParams(), 0)


class TestHashVector:
    def test_identity_rows_sign_rule(self):
        # bit j = sign of component j; (1, -1) -> bits (1, 0) -> code 1
        t = [[1.0, 0.0], [0.0, 1.0]]
        assert hash_codes(t, [[1.0, -1.0]])[0] == 1

    def test_zero_vector_all_ties(self):
        t = np.ones((3, 4))
        assert hash_codes(t, np.zeros((1, 4)))[0] == 0b111

    def test_negation_gives_complement(self):
        rng = np.random.default_rng(7)
        params = BoiParams(num_tables=1, hash_bits=6, seed=7)
        t = make_projections(params, 24)
        for _ in range(25):
            v = rng.standard_normal(24).astype(np.float32)
            assert np.all(t @ v != 0)  # no ties, complement exact
            code = hash_codes(t, [v])[0]
            assert hash_codes(t, [-v])[0] == code ^ 0b111111

    def test_pure_function(self):
        t = [[0.5, -0.25]]
        v = np.array([2.0, 1.0], dtype=np.float32)
        first = hash_codes(t, [v])
        assert np.array_equal(first, hash_codes(t, [v]))

    def test_dimension_mismatch(self):
        t = [[1.0, 0.0]]
        with pytest.raises(ValueError):
            hash_codes(t, np.zeros((1, 3), dtype=np.float32))

    def test_rejects_more_than_16_bits(self):
        # a 17th bit would not fit the uint16 code
        rows = np.eye(17, 2)
        assert hash_codes(rows[:16], [[1.0, 1.0]]).dtype == np.uint16
        with pytest.raises(ValueError, match=r"\[1, 16\]"):
            hash_codes(rows, [[1.0, 1.0]])

    def test_single_matches_batch(self):
        rng = np.random.default_rng(11)
        params = BoiParams(num_tables=4, hash_bits=8, seed=5)
        proj = make_projections(params, 20)
        X = rng.standard_normal((100, 20)).astype(np.float32)
        codes = hash_codes_all(proj, 8, X)
        for t_i in range(params.num_tables):
            rows = proj[8 * t_i : 8 * t_i + 8]
            col = hash_codes(rows, X)
            assert np.array_equal(col, codes[:, t_i])
            for row in (0, 17, 99):
                single = hash_codes(rows, X[row : row + 1])[0]
                assert single == codes[row, t_i]


class TestInsertAll:
    def test_empty_dataset(self):
        params = BoiParams(num_tables=2, hash_bits=3, initial_probe_count=2)
        tables = empty_tables(params, 4)
        assert tables.n == 0

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        params = BoiParams(num_tables=6, hash_bits=5, seed=21)
        data = VectorSet(rng.standard_normal((1000, 16)).astype(np.float32))
        tables = insert_all(make_projections(params, 16), 5, data)
        for offsets, members in zip(tables.offsets, tables.members):
            assert np.diff(offsets).sum() == 1000
            seen = np.sort(members)
            assert np.array_equal(seen, np.arange(1000))

    def test_records_land_in_their_hash_bucket(self):
        rng = np.random.default_rng(4)
        params = BoiParams(num_tables=3, hash_bits=4, seed=8)
        data = VectorSet(rng.standard_normal((200, 10)).astype(np.float32))
        tables = insert_all(make_projections(params, 10), 4, data)
        codes = hash_codes_all(tables.projections, tables.bits, data.vectors)
        for ti in range(tables.num_tables):
            for rid in range(0, 200, 17):
                assert rid in tables.bucket([ti], [codes[rid, ti]])

    def test_duplicate_vectors_share_buckets(self):
        rng = np.random.default_rng(5)
        row = rng.standard_normal(8).astype(np.float32)
        data = VectorSet(np.stack([row, row, row]))
        params = BoiParams(num_tables=4, hash_bits=6, seed=2)
        tables = insert_all(make_projections(params, 8), 6, data)
        for t in range(tables.num_tables):
            code = int(hash_codes(table_rows(tables, t), [row])[0])
            assert np.array_equal(tables.bucket([t], [code]), [0, 1, 2])

    def test_dimension_mismatch(self):
        params = BoiParams(num_tables=1, hash_bits=2, initial_probe_count=1)
        with pytest.raises(ValueError):
            insert_all(
                make_projections(params, 4),
                2,
                VectorSet(np.zeros((3, 5), dtype=np.float32)),
            )

    def test_rejects_2_31_records_before_hashing(self):
        params = BoiParams(num_tables=1, hash_bits=2, initial_probe_count=1)
        # only the record count is read before the check
        dataset = SimpleNamespace(n=2**31, vectors=None)
        with pytest.raises(ValueError, match="do not fit int32 record ids"):
            insert_all(make_projections(params, 4), 2, dataset)


class TestProjectionTable:
    @pytest.fixture(scope="class")
    def tables(self):
        rng = np.random.default_rng(12)
        params = BoiParams(num_tables=7, hash_bits=5, seed=4)
        data = VectorSet(rng.standard_normal((300, 9)).astype(np.float32))
        return insert_all(make_projections(params, 9), 5, data)

    def test_stacked_shapes(self, tables):
        assert tables.projections.shape == (7 * 5, 9)
        assert tables.projections.dtype == np.float64
        assert tables.offsets.shape == (7, 33)
        assert tables.members.shape == (7, 300)
        assert np.all(tables.offsets[:, -1] == 300)

    def test_projections_are_float32_exact(self, tables):
        as32 = tables.projections.astype(np.float32)
        assert np.array_equal(as32.astype(np.float64), tables.projections)

    @pytest.mark.parametrize("name", ["projections", "offsets", "members"])
    def test_arrays_are_read_only(self, tables, name):
        arr = getattr(tables, name)
        with pytest.raises(ValueError):
            arr[0, 0] = 1
        with pytest.raises(AttributeError):
            setattr(tables, name, arr.copy())

    def test_one_bucket_call_equals_per_bucket_concatenation(self, tables):
        rng = np.random.default_rng(13)
        rows = rng.integers(0, tables.num_tables, 200)
        codes = rng.integers(0, tables.num_buckets, 200)
        expected = np.concatenate(
            [
                tables.members[t, tables.offsets[t, c] : tables.offsets[t, c + 1]]
                for t, c in zip(rows, codes)
            ]
        )
        got = tables.bucket(rows, codes)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert tables.bucket([], []).size == 0

    def test_int32_arrays_are_kept_not_copied(self, tables):
        again = ProjectionTable(tables.projections, tables.offsets, tables.members)
        assert again.offsets is tables.offsets
        assert again.members is tables.members

    def test_codes_and_offsets_use_the_named_widths(self, tables):
        assert tables.offsets.dtype == OFFSET_DTYPE == np.int32
        codes = hash_codes_all(tables.projections, tables.bits, np.ones((3, 9)))
        assert codes.dtype == CODE_DTYPE == np.uint16

    @pytest.mark.parametrize(
        "name, value", [("offsets", 2**32 + 3), ("members", 2**32 + 1)]
    )
    def test_wide_values_that_do_not_fit_int32_raise(self, name, value):
        arrays = {
            "offsets": np.array([[0, 1, 2]], dtype=np.int64),
            "members": np.array([[1, 0]], dtype=np.int64),
        }
        arrays[name][0, -1] = value
        with pytest.raises(ValueError, match=f"{name} values do not fit int32"):
            ProjectionTable(np.ones((1, 2)), **arrays)

    def test_members_of_2_31_records_raise(self):
        # a zero-stride view: 2**31 int32 ids without allocating them
        zero = np.zeros(1, dtype=np.int32)
        offsets = np.zeros((1, 3), dtype=np.int32)
        largest = as_strided(zero, shape=(1, 2**31 - 1), strides=(0, 0))
        assert ProjectionTable(np.ones((1, 2)), offsets, largest).n == 2**31 - 1
        members = as_strided(zero, shape=(1, 2**31), strides=(0, 0))
        with pytest.raises(ValueError, match="do not fit int32 record ids"):
            ProjectionTable(np.ones((1, 2)), offsets, members)


def hamming(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


class TestNeighborCodes:
    def test_one_bit_shell_is_exact(self):
        rng = np.random.default_rng(0)
        got = neighbor_codes_with_distance(0b10110001, 8, 8, rng)[0]
        expected = {0b10110001 ^ (1 << j) for j in range(8)}
        assert set(int(c) for c in got) == expected

    def test_spill_into_second_shell(self):
        # enumeration oracle: group all codes by Hamming distance from center
        center = 37
        bits = 8
        by_shell = {}
        for code in range(1 << bits):
            if code != center:
                by_shell.setdefault(hamming(code, center), set()).add(code)
        rng = np.random.default_rng(1)
        codes = neighbor_codes_with_distance(center, 10, bits, rng)[0]
        got = [int(c) for c in codes]
        assert set(got[:8]) == by_shell[1]
        assert set(got[8:]) <= by_shell[2]
        assert len(set(got)) == 10

    def test_zero_count(self):
        rng = np.random.default_rng(2)
        assert neighbor_codes_with_distance(3, 0, 4, rng)[0].size == 0

    def test_count_too_large(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            neighbor_codes_with_distance(0, 16, 4, rng)

    def test_center_out_of_range(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            neighbor_codes_with_distance(16, 1, 4, rng)

    def test_array_of_centers(self):
        centers = np.array([0, 9, 37, 255])
        codes, dists = neighbor_codes_with_distance(
            centers, 12, 8, np.random.default_rng(6)
        )
        assert codes.shape == (4, 12) and dists.shape == (12,)
        for center, row in zip(centers, codes):
            assert len(set(row.tolist())) == 12
            assert [hamming(int(c), int(center)) for c in row] == dists.tolist()
        single = neighbor_codes_with_distance(37, 12, 8, np.random.default_rng(6))
        one_row = neighbor_codes_with_distance(
            np.array([37]), 12, 8, np.random.default_rng(6)
        )
        assert np.array_equal(single[0], one_row[0][0])
        assert np.array_equal(single[1], one_row[1])

    def test_reported_distances_are_true_distances(self):
        rng = np.random.default_rng(5)
        codes, dists = neighbor_codes_with_distance(9, 14, 6, rng)
        for c, h in zip(codes, dists):
            assert hamming(int(c), 9) == int(h)


@given(
    bits=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_neighbor_codes_properties(bits, seed, data):
    max_count = data.draw(st.integers(0, (1 << bits) - 1))
    center = data.draw(st.integers(0, (1 << bits) - 1))
    rng = np.random.default_rng(seed)
    codes = neighbor_codes_with_distance(center, max_count, bits, rng)[0]
    assert codes.size == max_count
    as_ints = [int(c) for c in codes]
    assert center not in as_ints
    assert len(set(as_ints)) == len(as_ints)
    dists = [hamming(c, center) for c in as_ints]
    assert dists == sorted(dists)  # non-decreasing shells


def test_flip_masks_shell_sizes():
    from math import comb

    for bits in (1, 4, 8):
        for dist in range(bits + 2):
            assert flip_masks(bits, dist).size == comb(bits, dist)


@pytest.mark.parametrize("bits, dist", [(0, 1), (4, -1), (17, 1)])
def test_flip_masks_rejects_bad_arguments(bits, dist):
    with pytest.raises(ValueError):
        flip_masks(bits, dist)


def test_collision_probability_monotone_in_angle():
    # pairs closer than 30 degrees must collide in a 1-bit table strictly
    # more often than pairs farther than 60 degrees
    rng = np.random.default_rng(99)
    dim = 8
    n_pairs = 1500

    def collisions(theta_low, theta_high):
        count = 0
        for _ in range(n_pairs):
            u = rng.standard_normal(dim)
            u /= np.linalg.norm(u)
            w = rng.standard_normal(dim)
            w -= (w @ u) * u
            w /= np.linalg.norm(w)
            theta = rng.uniform(theta_low, theta_high)
            v = np.cos(theta) * u + np.sin(theta) * w
            r = rng.standard_normal(dim)
            count += (r @ u >= 0) == (r @ v >= 0)
        return count

    close = collisions(0.0, np.pi / 6)
    far = collisions(np.pi / 3, np.pi / 2)
    assert close > far


def test_occupancy_summary_counts():
    rng = np.random.default_rng(6)
    params = BoiParams(num_tables=2, hash_bits=3, initial_probe_count=3, seed=1)
    data = VectorSet(rng.standard_normal((50, 6)).astype(np.float32))
    tables = insert_all(make_projections(params, 6), 3, data)
    stats = occupancy_summary(tables)
    assert stats["num_tables"] == 2
    assert stats["buckets_per_table"] == 8
    assert stats["mean"] == pytest.approx(50 / 8)
