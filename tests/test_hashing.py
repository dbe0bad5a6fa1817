import threading
import tracemalloc
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided

from boi.core import MAX_HASH_BITS, BoiParams, VectorSet
from boi.data_io import load_index, save_index
from boi.hashing import (
    _HASH_CHUNK,
    _sign_filter,
    CODE_DTYPE,
    OFFSET_DTYPE,
    ProjectionTable,
    check_record_count,
    hash_codes_all,
    insert_all,
    make_projections,
    occupancy_summary,
)
from boi.index import _bound_plan, build_index, neighbor_codes_with_distance, probe_plan
from hand_tables import dense_offsets, directory, from_record_ids
from probe_rows import margin_rows


def hash_codes(rows, X) -> np.ndarray:
    """Codes of X under one table given by its (bits x dim) matrix."""
    proj = np.asarray(rows, dtype=np.float32)
    return hash_codes_all(_sign_filter(proj, proj.shape[0]), X)[:, 0]


def table_rows(tables: ProjectionTable, t: int) -> np.ndarray:
    """Table t's (bits x dim) block of the stacked projections."""
    return tables.projections[t * tables.bits : (t + 1) * tables.bits]


def empty_tables(params: BoiParams, dim: int) -> ProjectionTable:
    empty = VectorSet(np.empty((0, dim), dtype=np.float32))
    return insert_all(make_projections(params, dim), params.hash_bits, empty)


def pack(signs, bits) -> np.ndarray:
    """(m, L*bits) bools to (m, L) codes, bit j of a code from sign j."""
    shifted = signs.reshape(len(signs), -1, bits) << np.arange(bits)
    return shifted.sum(axis=-1).astype(np.uint16)


def shift_and_sum_codes(projections, bits, X) -> np.ndarray:
    """Reference codes: every sign shifted to its bit and the bits of a
    code summed."""
    signs = np.asarray(X, dtype=np.float64) @ np.asarray(projections).T >= 0
    return pack(signs, bits)


def sequential_codes(projections, bits, X) -> np.ndarray:
    """Reference codes from float64 sums of the exact float32 products,
    taken in index order (``np.cumsum`` adds one term at a time; Python's
    ``sum`` compensates from 3.12 on)."""
    products = np.asarray(X, np.float64)[:, None] * np.asarray(projections, np.float64)
    return pack(np.cumsum(products, axis=-1)[..., -1] >= 0, bits)


def argsort_buckets(codes, bits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference (offsets, order, members) of every table: a bincount of its
    column of codes; the order, a stable argsort of table 0's codes; and a
    stable argsort of each table's codes listed in that order, which groups
    the internal ids (positions in the order) by code."""
    n, num_tables = codes.shape
    offsets = np.zeros((num_tables, (1 << bits) + 1), dtype=np.int64)
    members = np.empty((num_tables, n), dtype=np.int64)
    order = np.argsort(codes[:, 0], kind="stable") if num_tables else np.arange(n)
    for t in range(num_tables):
        offsets[t, 1:] = np.cumsum(np.bincount(codes[:, t], minlength=1 << bits))
        members[t] = np.argsort(codes[order, t], kind="stable")
    return offsets, order, members


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
            assert tables.buckets(t)[0].size == 0

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
        # the larger batch spans two chunk boundaries
        for m in (100, 2 * _HASH_CHUNK + 1):
            X = rng.standard_normal((m, 20)).astype(np.float32)
            codes = hash_codes_all(_sign_filter(proj, 8), X)
            for t_i in range(params.num_tables):
                rows = proj[8 * t_i : 8 * t_i + 8]
                col = hash_codes(rows, X)
                assert np.array_equal(col, codes[:, t_i])
                for row in (0, 17, m - 1):
                    single = hash_codes(rows, X[row : row + 1])[0]
                    assert single == codes[row, t_i]

    def test_buffers_hold_one_chunk_at_a_time(self):
        proj = make_projections(BoiParams(num_tables=4, hash_bits=8, seed=5), 64)
        X = np.random.default_rng(12).standard_normal((20_000, 64))
        X = X.astype(np.float32)
        sign_filter = _sign_filter(proj, 8)
        tracemalloc.start()
        try:
            hash_codes_all(sign_filter, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dot products of the whole batch alone take 2.56 MB
        assert peak < X.size * 2


@pytest.mark.parametrize("bits", range(1, MAX_HASH_BITS + 1))
def test_packed_codes_match_the_shift_and_sum_oracle(bits):
    rng = np.random.default_rng(bits)
    params = BoiParams(num_tables=3, hash_bits=bits, initial_probe_count=1, seed=bits)
    proj = make_projections(params, 10)
    # a batch over two chunk boundaries, with zero vectors, whose every dot
    # product ties at 0 and sets every bit
    X = rng.standard_normal((2 * _HASH_CHUNK + 1, 10)).astype(np.float32)
    X[[0, _HASH_CHUNK, 2 * _HASH_CHUNK]] = 0.0
    sign_filter = _sign_filter(proj, bits)
    codes = hash_codes_all(sign_filter, X)
    assert codes.dtype == CODE_DTYPE and codes.shape == (len(X), 3)
    assert np.array_equal(codes, shift_and_sum_codes(proj, bits, X))
    assert np.all(codes[[0, _HASH_CHUNK, 2 * _HASH_CHUNK]] == (1 << bits) - 1)
    assert codes.max() < 1 << bits
    for row in (0, 1, _HASH_CHUNK + 7, 2 * _HASH_CHUNK):
        one = X[row : row + 1]
        single = hash_codes_all(sign_filter, one)
        assert np.array_equal(single, shift_and_sum_codes(proj, bits, one))
        assert np.array_equal(single[0], codes[row])


def near_ties(proj, rng, m) -> np.ndarray:
    """m rows, row i built so that its dot with projection row i mod L*b
    is within float32 rounding of 0: the last component cancels the rest
    up to its own rounding."""
    X = rng.standard_normal((m, proj.shape[1])).astype(np.float32)
    p = proj[np.arange(m) % len(proj)].astype(np.float64)
    rest = np.einsum("ij,ij->i", X[:, :-1].astype(np.float64), p[:, :-1])
    X[:, -1] = -rest / p[:, -1]
    return X


def sign_flips(proj, bits, X) -> np.ndarray:
    """Codes from float32 sums in index order: the signs a float32 hash
    would give without the filter."""
    products = X[:, None] * np.asarray(proj, np.float32)
    return pack(np.cumsum(products, axis=-1)[..., -1] >= 0, bits)


class TestExactSigns:
    """Each sign the float32 error bound cannot decide is the float64 sum
    of the exact products in index order, whatever the batch."""

    params = BoiParams(num_tables=4, hash_bits=6, initial_probe_count=1, seed=8)

    @pytest.fixture(scope="class")
    def proj(self):
        return make_projections(self.params, 16)

    def test_zero_and_orthogonal_rows_set_the_bit(self, proj):
        X = np.zeros((len(proj) + 1, 16), dtype=np.float32)
        # row j + 1 is orthogonal to projection row j: two products that
        # cancel exactly
        for j, p in enumerate(proj):
            X[j + 1, :2] = p[1], -p[0]
        codes = hash_codes_all(_sign_filter(proj, 6), X)
        assert np.all(codes[0] == 0b111111)
        for j in range(len(proj)):
            assert codes[j + 1, j // 6] >> (j % 6) & 1, j
        assert np.array_equal(codes, sequential_codes(proj, 6, X))

    def test_a_sign_float32_rounding_flips(self):
        # 1 - 2**-26 rounds to 1 in float32, so the float32 sum in index
        # order is 0 (bit 1); the exact sum is -2**-26 (bit 0)
        proj = np.array([[1.0, -(2.0**-26), -1.0], [-1.0, 2.0**-26, 1.0]], np.float32)
        X = np.ones((1, 3), dtype=np.float32)
        assert sign_flips(proj, 2, X)[0, 0] == 0b11
        codes = hash_codes_all(_sign_filter(proj, 2), X)
        assert codes[0, 0] == 0b10
        assert np.array_equal(codes, sequential_codes(proj, 2, X))

    def test_near_ties_follow_the_index_order_float64_sum(self, proj):
        X = near_ties(proj, np.random.default_rng(21), 2000)
        expected = sequential_codes(proj, 6, X)
        # float32 rounding flips some of these signs in index order
        assert not np.array_equal(sign_flips(proj, 6, X), expected)
        assert np.array_equal(hash_codes_all(_sign_filter(proj, 6), X), expected)

    @pytest.mark.parametrize(
        "row_scale, projection_scale",
        [
            (2.0**-130, 1.0),  # subnormal rows and products
            (2.0**-60, 2.0**-80),  # tiny rows, subnormal products
            (2.0**-28, 2.0**-120),  # products whose rounding outweighs
            # the relative error bound
            (2.0**60, 1.0),
            (2.0**127, 1.0),  # the float32 products overflow
            (2.0**110, 2.0**20),  # and here the squared row norm does not
        ],
    )
    def test_rows_and_projections_far_from_unit_scale(
        self, proj, row_scale, projection_scale
    ):
        rng = np.random.default_rng(22)
        X = (rng.uniform(-1, 1, (300, 16)) * row_scale).astype(np.float32)
        scaled = proj * np.float32(projection_scale)
        assert np.all(np.isfinite(X)) and np.any(X)
        expected = sequential_codes(scaled, 6, X)
        assert np.array_equal(hash_codes_all(_sign_filter(scaled, 6), X), expected)

    def test_every_row_of_a_batch_hashes_alone_to_its_batch_code(self, proj):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((2 * _HASH_CHUNK + 1, 16)).astype(np.float32)
        X[::3] = near_ties(proj, rng, len(X[::3]))
        X[1::7] = 0.0
        X[2::11] *= np.float32(2.0**-130)
        X[4::13] *= np.float32(2.0**100)
        sign_filter = _sign_filter(proj, 6)
        codes = hash_codes_all(sign_filter, X)
        assert np.array_equal(codes, sequential_codes(proj, 6, X))
        for row in range(len(X)):
            single = hash_codes_all(sign_filter, X[row : row + 1])[0]
            assert np.array_equal(single, codes[row])


def test_the_hash_keeps_its_dot_products():
    # ``dots`` gets the one float32 product the codes were decided from,
    # in one piece however many rows there are
    rng = np.random.default_rng(4)
    proj = make_projections(BoiParams(num_tables=5, hash_bits=6, seed=2), 20)
    sign_filter = _sign_filter(proj, 6)
    X = rng.standard_normal((_HASH_CHUNK + 3, 20)).astype(np.float32)
    dots = np.empty((30, len(X)), np.float32)
    codes = hash_codes_all(sign_filter, X, dots=dots)
    assert np.array_equal(dots, proj @ X.T)
    assert np.array_equal(codes, hash_codes_all(sign_filter, X))
    for bad in (
        np.empty((30, len(X) - 1), np.float32),
        np.empty((30, len(X))),
        np.empty((len(X), 30), np.float32).T,
    ):
        with pytest.raises(ValueError, match="dots must be"):
            hash_codes_all(sign_filter, X, dots=bad)


def test_dimensions_past_the_error_bound_raise():
    # (d + 2) * 2**-24 must stay below 1/2 for gamma_{d+2} to bound the
    # float32 error; a zero-stride view checks it without 32 MB of rows
    wide = np.broadcast_to(np.float32(1.0), (1, 2**23 - 2))
    with pytest.raises(ValueError, match="dim must be below 2\\*\\*23 - 2"):
        _sign_filter(wide, 1)


def test_threads_hashing_under_different_tables_get_their_own_codes():
    # each table holds its own filter, and the compiled filter keeps its
    # state on the stack, so threads hashing at once do not mix them up
    filters, expected = [], []
    X = np.random.default_rng(31).standard_normal((5, 16)).astype(np.float32)
    for seed in (1, 2):  # the same shapes, different values
        proj = make_projections(BoiParams(num_tables=4, hash_bits=8, seed=seed), 16)
        filters.append(_sign_filter(proj, 8))
        expected.append(sequential_codes(proj, 8, X))
    wrong = []

    def hash_many(i):
        for _ in range(400):
            if not np.array_equal(hash_codes_all(filters[i % 2], X), expected[i % 2]):
                wrong.append(i)

    threads = [threading.Thread(target=hash_many, args=(i,)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


class TestInsertAll:
    @pytest.mark.parametrize("n", [0, 1, 1000])
    @pytest.mark.parametrize("bits", [1, 5, 8, 12, 16])
    def test_buckets_match_the_stable_argsort_oracle(self, bits, n):
        rng = np.random.default_rng(100 * bits + n)
        params = BoiParams(
            num_tables=5, hash_bits=bits, initial_probe_count=1, seed=bits
        )
        proj = make_projections(params, 6)
        # repeated rows share every bucket, and with them the id order
        # within a bucket is the stable order
        X = rng.standard_normal((n, 6)).astype(np.float32)
        X[n // 2 :] = X[: n - n // 2]
        tables = insert_all(proj, bits, VectorSet(X))
        codes = hash_codes_all(_sign_filter(proj, bits), X)
        offsets, order, members = argsort_buckets(codes, bits)
        assert np.array_equal(dense_offsets(tables), offsets)
        assert np.array_equal(tables.order, np.argsort(codes[:, 0], kind="stable"))
        assert np.array_equal(tables.order, order)
        assert np.array_equal(tables.members[0], np.arange(n))
        assert np.array_equal(tables.members, members)
        assert tables.offsets.dtype == OFFSET_DTYPE and tables.members.dtype == np.int32
        assert tables.order.dtype == np.int32
        # each bucket lists its records' internal ids in ascending order,
        # and through the order they are exactly the records of its code;
        # the directory lists exactly the codes that hold a record
        for t in range(tables.num_tables):
            nonempty, starts = tables.buckets(t)
            assert np.array_equal(nonempty, np.unique(codes[:, t]))
            for c, a, b in zip(nonempty, starts, starts[1:]):
                internal = tables.members[t, a:b]
                assert np.all(np.diff(internal) > 0)
                records = np.sort(tables.order[internal])
                assert np.array_equal(records, np.flatnonzero(codes[:, t] == c))
        # the directory holds only the non-empty buckets and each table's n
        assert tables.offsets.size == sum(np.unique(col).size + 1 for col in codes.T)

    def test_build_holds_no_code_array_of_its_own(self):
        params = BoiParams(num_tables=8, hash_bits=4, initial_probe_count=1, seed=9)
        proj = make_projections(params, 4)
        rng = np.random.default_rng(14)
        data = VectorSet(rng.standard_normal((100_000, 4)).astype(np.float32))
        codes = np.empty((data.n, params.num_tables), dtype=CODE_DTYPE)
        tracemalloc.start()
        try:
            hash_codes_all(_sign_filter(proj, 4), data.vectors, out=codes)
            hash_peak = tracemalloc.get_traced_memory()[1]  # the chunk buffers
            tracemalloc.reset_peak()
            tables = insert_all(proj, 4, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(tables.members, argsort_buckets(codes, 4)[2])
        held = sum(
            getattr(tables, name).nbytes
            for name in ("bitmap", "rank", "offsets", "members", "order")
        )
        # the returned arrays, the hash's buffers, one table's codes and one
        # table's 2**4 + 1 offsets, with the directory's pieces on the way:
        # an (n, L) code array beside them would add another 1.6 MB
        slack = 2 * tables.offsets.nbytes + ((1 << 4) + 1) * 4
        assert peak <= held + hash_peak + data.n * CODE_DTYPE.itemsize + slack

    def test_empty_dataset(self):
        params = BoiParams(num_tables=2, hash_bits=3, initial_probe_count=2)
        tables = empty_tables(params, 4)
        assert tables.n == 0

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        params = BoiParams(num_tables=6, hash_bits=5, seed=21)
        data = VectorSet(rng.standard_normal((1000, 16)).astype(np.float32))
        tables = insert_all(make_projections(params, 16), 5, data)
        for t, members in enumerate(tables.members):
            assert np.diff(tables.buckets(t)[1]).sum() == 1000
            seen = np.sort(members)
            assert np.array_equal(seen, np.arange(1000))

    def test_records_land_in_their_hash_bucket(self):
        rng = np.random.default_rng(4)
        params = BoiParams(num_tables=3, hash_bits=4, seed=8)
        data = VectorSet(rng.standard_normal((200, 10)).astype(np.float32))
        tables = insert_all(make_projections(params, 10), 4, data)
        codes = hash_codes_all(tables.sign_filter, data.vectors)
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
        assert tables.projections.dtype == np.float32
        # 32 codes a table fit one word of bitmap and rank
        assert tables.bitmap.shape == tables.rank.shape == (7, 1)
        assert tables.members.shape == (7, 300)
        assert np.array_equal(dense_offsets(tables)[:, -1], [300] * 7)

    def test_projections_are_float32_exact(self, tables):
        as32 = tables.projections.astype(np.float32)
        assert np.array_equal(as32.astype(np.float64), tables.projections)

    @pytest.mark.parametrize("name", ["projections", "bitmap", "rank", "offsets", "members"])
    def test_arrays_are_read_only(self, tables, name):
        arr = getattr(tables, name)
        with pytest.raises(ValueError):
            arr.flat[0] = 1
        with pytest.raises(AttributeError):
            setattr(tables, name, arr.copy())

    def test_one_bucket_call_equals_per_bucket_concatenation(self, tables):
        rng = np.random.default_rng(13)
        rows = rng.integers(0, tables.num_tables, 200)
        codes = rng.integers(0, tables.num_buckets, 200)
        # the buckets hold internal ids; bucket gives the records they name
        offsets = dense_offsets(tables)
        expected = tables.order[
            np.concatenate(
                [tables.members[t, offsets[t, c] : offsets[t, c + 1]] for t, c in zip(rows, codes)]
            )
        ]
        got = tables.bucket(rows, codes)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert tables.bucket([], []).size == 0

    def test_int32_arrays_are_kept_not_copied(self, tables):
        again = ProjectionTable(
            tables.projections, tables.bitmap, tables.offsets, tables.members,
            tables.order,
        )
        assert again.bitmap is tables.bitmap
        assert again.offsets is tables.offsets
        assert again.members is tables.members
        assert again.order is tables.order

    def test_order_is_a_read_only_permutation(self, tables):
        assert np.array_equal(np.sort(tables.order), np.arange(tables.n))
        with pytest.raises(ValueError):
            tables.order[0] = 1
        with pytest.raises(AttributeError):
            tables.order = tables.order.copy()

    def test_a_table_over_record_ids_is_numbered_in_table_0_order(self):
        # a table built by hand over record ids (hand_tables): row 0 becomes
        # the order, and row 0 of members becomes 0..n-1
        offsets = np.array([[0, 2, 3]], dtype=np.int32)
        tables = from_record_ids(np.ones((1, 2)), offsets, [[2, 0, 1]])
        assert tables.order.tolist() == [2, 0, 1]
        assert tables.members.tolist() == [[0, 1, 2]]
        assert tables.order.dtype == np.int32 and not tables.order.flags.writeable
        assert not tables.members.flags.writeable
        assert tables.bucket([0, 0], [0, 1]).tolist() == [2, 0, 1]
        # an order names its records: bucket 0 holds records 1 and 2
        tables = ProjectionTable(
            np.ones((1, 2)), *directory(offsets), [[0, 1, 2]], [1, 2, 0]
        )
        assert tables.bucket([0, 0], [0, 1]).tolist() == [1, 2, 0]

    def test_renumbering_keeps_every_bucket_and_sorts_later_rows(self):
        offsets = np.array([[0, 2, 4], [0, 3, 4], [0, 0, 4]], dtype=np.int32)
        members = np.array([[3, 1, 0, 2], [0, 1, 3, 2], [2, 3, 1, 0]], np.int32)
        tables = from_record_ids(np.ones((3, 2)), offsets, members)
        assert tables.order.tolist() == [3, 1, 0, 2]
        # record r was internal id r; internal ids 0..3 are now 3, 1, 0, 2
        assert tables.members.tolist() == [[0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3]]
        assert np.array_equal(dense_offsets(tables), offsets)
        for t in range(3):
            for c in range(2):
                records = members[t, offsets[t, c] : offsets[t, c + 1]]
                assert sorted(tables.bucket([t], [c]).tolist()) == sorted(records)
        # the internal form is kept as it is
        again = ProjectionTable(
            tables.projections, tables.bitmap, tables.offsets, tables.members,
            tables.order,
        )
        assert again.members is tables.members and again.order is tables.order

    @pytest.mark.parametrize(
        "row",
        [[2, 0, 1], [0, 1, 3], [0, 1, -1], [0, 1, 1]],
        ids=["permutation", "id=n", "id=-1", "dup"],
    )
    def test_a_row_0_that_is_not_0_to_n_minus_1_raises(self, row):
        # the one form: records are numbered in table 0's bucket order
        members = np.array([row, [0, 1, 2]], dtype=np.int32)
        offsets = np.array([[0, 2, 3], [0, 1, 3]], dtype=np.int32)
        with pytest.raises(ValueError, match="row 0 of members is not 0..2"):
            ProjectionTable(np.ones((2, 2)), *directory(offsets), members, np.arange(3))

    @pytest.mark.parametrize(
        "projections, offsets, members, match",
        [
            (np.ones(2), [[0, 2, 3]], [[0, 1, 2]], "projections of shape"),
            # 7 projection rows of one table are 7 bits, 128 buckets in two
            # words, not the 2 buckets of these offsets in one
            (np.ones((7, 2)), [[0, 2, 3]], [[0, 1, 2]], r"bitmap of shape \(1, 1\)"),
            (np.ones((1, 2)), [[0, 2, 3]] * 2, [[0, 1, 2]] * 2, "projections of shape"),
            (np.ones((2, 2)), [[0, 2, 3]] * 2, [[0, 1, 2]], "members of shape"),
        ],
        ids=["1-d-projections", "offsets-width", "projection-rows", "member-rows"],
    )
    def test_shapes_that_disagree_raise(self, projections, offsets, members, match):
        with pytest.raises(ValueError, match=match):
            ProjectionTable(projections, *directory(offsets), members, np.arange(3))

    @pytest.mark.parametrize(
        "name, shape", [("bitmap", (1, 1)), ("offsets", (1, 3))], ids=["bitmap", "offsets"]
    )
    def test_directory_arrays_of_the_wrong_shape_raise(self, name, shape):
        # one 7-bit table: two words of bitmap, and 1-D offsets
        arrays = dict(zip(("bitmap", "offsets"), directory([[0] * 129])))
        arrays[name] = np.zeros(shape, arrays[name].dtype)
        with pytest.raises(ValueError, match=f"{name} of shape"):
            ProjectionTable(np.ones((7, 2)), **arrays, members=[[]], order=[])

    def test_a_directory_of_n_records_is_accepted(self):
        # 7 bits: two words, the second holding codes 64..127; one record
        # in bucket 3 and one in bucket 127
        offsets = np.zeros(129, np.int64)
        offsets[[4, 65, 128]] = [1, 1, 2]
        offsets = np.maximum.accumulate(offsets)[np.newaxis]
        bitmap, starts = directory(offsets)
        assert bitmap.tolist() == [[1 << 3, 1 << 63]]
        tables = ProjectionTable(np.ones((7, 2)), bitmap, starts, [[0, 1]], [0, 1])
        assert tables.rank.tolist() == [[0, 1]]
        assert tables.bits == 7 and tables.num_tables == 1
        assert tables.buckets(0)[0].tolist() == [3, 127]
        assert tables.bucket([0, 0, 0], [127, 5, 3]).tolist() == [1, 0]

    @pytest.mark.parametrize(
        "change, match",
        [
            # a start that decreases, or passes n, or does not begin at 0
            (lambda b, s: (b, s[[0, 2, 1, 3]]), "offsets do not rise"),
            (lambda b, s: (b, s + [0, 0, 3, 0]), "offsets do not rise"),
            (lambda b, s: (b, s + [0, 0, 0, 1]), "offsets do not rise"),
            (lambda b, s: (b, s + 1), "offsets do not rise"),
            # two starts equal: a bucket set in the bitmap that holds nothing
            (lambda b, s: (b, s[[0, 1, 1, 3]]), "offsets do not rise"),
            # starts that wrap int32 on the way, each step read as rising
            (lambda b, s: (b, np.array([0, 2**31 - 1, -(2**31), 3])),
             "offsets do not rise"),
            # a fourth bit needs one more offset
            (
                lambda b, s: (b | np.uint64(1 << 9), s),
                "offsets do not hold one value per set bit",
            ),
        ],
        ids=["decreasing", "past-n", "last-not-n", "first-not-0", "empty-bucket",
             "int32-wrap", "extra-bit"],
    )
    def test_a_directory_that_is_not_one_of_n_records_raises(self, change, match):
        # one 7-bit table of 3 records: codes 3 and 5 in word 0, 70 in word 1
        offsets = np.zeros(129, np.int64)
        offsets[[4, 6, 71]] = 1
        offsets = np.cumsum(offsets)[np.newaxis]
        bitmap, starts = directory(offsets)
        assert starts.tolist() == [0, 1, 2, 3]
        tables = ProjectionTable(np.ones((7, 2)), bitmap, starts, [[0, 1, 2]], [0, 1, 2])
        assert tables.rank.tolist() == [[0, 2]]
        with pytest.raises(ValueError, match=match):
            ProjectionTable(np.ones((7, 2)), *change(bitmap, starts), [[0, 1, 2]], [0, 1, 2])

    @pytest.mark.parametrize("bits", [1, 2, 5])
    def test_a_bit_past_2_bits_raises(self, bits):
        # a table of fewer than 64 codes has one word; its bits at and past
        # 2**bits name no code
        offsets = np.zeros((1, (1 << bits) + 1), np.int64)
        offsets[0, 1:] = 1
        bitmap, starts = directory(offsets)
        projections = np.ones((bits, 2))
        ProjectionTable(projections, bitmap, starts, [[0]], [0])
        with pytest.raises(ValueError, match=f"code at or past 2\\*\\*{bits}"):
            ProjectionTable(
                projections, bitmap | np.uint64(1 << (1 << bits)), starts, [[0]], [0]
            )

    @pytest.mark.parametrize(
        "order", [[0, 0, 1], [-1, 0, 1], [0, 1, 3], [2, 1, 2]],
        ids=["dup", "negative", "past-n", "dup-in-range"],
    )
    def test_an_order_that_is_not_a_permutation_raises(self, order):
        offsets = np.array([[0, 2, 3]], dtype=np.int32)
        members = np.array([[0, 1, 2]], dtype=np.int32)
        with pytest.raises(ValueError, match="order is not a permutation"):
            ProjectionTable(np.ones((1, 2)), *directory(offsets), members, order)

    @pytest.mark.parametrize(
        "order", [[0, 1], [[0, 1, 2]], [0, 1, 2**32]], ids=["short", "2d", "wide"]
    )
    def test_order_of_the_wrong_shape_or_width_raises(self, order):
        offsets = np.array([[0, 2, 3]], dtype=np.int32)
        members = np.array([[0, 1, 2]], dtype=np.int32)
        with pytest.raises(ValueError, match="order"):
            ProjectionTable(np.ones((1, 2)), *directory(offsets), members, order)

    def test_codes_and_offsets_use_the_named_widths(self, tables):
        assert tables.offsets.dtype == tables.rank.dtype == OFFSET_DTYPE == np.int32
        assert tables.bitmap.dtype == np.uint64
        codes = hash_codes_all(tables.sign_filter, np.ones((3, 9)))
        assert codes.dtype == CODE_DTYPE == np.uint16

    @pytest.mark.parametrize(
        "name, value", [("offsets", 2**32 + 3), ("members", 2**32 + 1)]
    )
    def test_wide_values_that_do_not_fit_int32_raise(self, name, value):
        # the dense offsets' last value is the directory's last offset
        offsets = np.array([[0, 1, 2]], dtype=np.int64)
        members = np.array([[0, 1]], dtype=np.int64)
        {"offsets": offsets, "members": members}[name][0, -1] = value
        bitmap, starts = directory(offsets)
        with pytest.raises(ValueError, match=f"{name} values do not fit int32"):
            ProjectionTable(np.ones((1, 2)), bitmap, starts, members, np.arange(2))

    def test_a_bitmap_uint64_cannot_hold_raises(self):
        bitmap, starts = directory([[0, 1, 2]])
        with pytest.raises(ValueError, match="bitmap values do not fit uint64"):
            ProjectionTable(
                np.ones((1, 2)), -bitmap.astype(np.int64), starts, [[0, 1]], [0, 1]
            )

    def test_projections_float32_cannot_hold_raise(self):
        offsets = directory([[0, 1, 2]])
        members = np.array([[0, 1]], dtype=np.int32)
        order = np.arange(2)
        with pytest.raises(ValueError, match="projections values do not fit float32"):
            ProjectionTable(np.array([[0.1, 1.0]]), *offsets, members, order)
        with pytest.raises(ValueError, match="projections values do not fit float32"):
            _sign_filter(np.array([[1.0, 2.0**-150]]), 1)
        # float64 values float32 holds exactly are narrowed, not rejected
        tables = ProjectionTable(np.array([[0.5, -2.0**-149]]), *offsets, members, order)
        assert tables.projections.dtype == np.float32
        assert tables.projections.tolist() == [[0.5, -(2.0**-149)]]

    def test_members_of_2_31_records_raise(self):
        # the largest count is accepted; a table of it would need 8 GiB
        check_record_count(2**31 - 1)
        # zero-stride views: 2**31 int32 ids without allocating them, and
        # the count is checked before the arrays are stored contiguously
        zero = np.zeros(1, dtype=np.int32)
        offsets = directory(np.zeros((1, 3), dtype=np.int32))
        members = as_strided(zero, shape=(1, 2**31), strides=(0, 0))
        order = as_strided(zero, shape=(2**31,), strides=(0,))
        with pytest.raises(ValueError, match="do not fit int32 record ids"):
            ProjectionTable(np.ones((1, 2)), *offsets, members, order)

    def test_offsets_of_2_31_values_raise(self):
        # int32 ranks reach at most 2**31 - 1 offsets: a zero-stride view of
        # 2**31 is refused before the offsets are stored contiguously
        bitmap, _ = directory(np.zeros((1, 3), dtype=np.int32))
        offsets = as_strided(np.zeros(1, dtype=np.int32), shape=(2**31,), strides=(0,))
        with pytest.raises(ValueError, match=r"2147483648 offsets do not fit int32 ranks"):
            ProjectionTable(np.ones((1, 2)), bitmap, offsets, [[]], [])


@pytest.mark.parametrize("bits", [1, 5, 7, 16])
@pytest.mark.parametrize("source", ["built", "loaded", "hand"])
def test_rank_is_each_words_position_in_the_offsets(tmp_path, source, bits):
    # however a table's arrays were made, it makes rank[t, w] itself: where
    # table t's piece begins plus the set bits of its words before w; and
    # buckets(t) gives the codes and starts the table's counts give
    rng = np.random.default_rng(bits)
    n, num_tables = 300, 3
    if source == "hand":
        # dense offsets of random counts, most buckets empty at b = 16
        counts = rng.multinomial(n, np.full(1 << bits, 1 / (1 << bits)), size=num_tables)
        dense = np.pad(np.cumsum(counts, axis=1), ((0, 0), (1, 0)))
        members = [rng.permutation(n) for _ in range(num_tables)]
        tables = from_record_ids(np.ones((num_tables * bits, 2)), dense, members)
    else:
        data = VectorSet(rng.standard_normal((n, 6)).astype(np.float32))
        params = BoiParams(
            num_tables=num_tables, hash_bits=bits, initial_probe_count=1, seed=bits
        )
        index = build_index(data, params)
        codes = hash_codes_all(index.tables.sign_filter, data.vectors)
        counts = np.stack([np.bincount(col, minlength=1 << bits) for col in codes.T])
        if source == "loaded":
            save_index(index, tmp_path / "index.boix")
            index = load_index(tmp_path / "index.boix")
        tables = index.tables
    assert tables.rank.dtype == OFFSET_DTYPE and not tables.rank.flags.writeable
    start = 0  # where table t's piece begins, counted bit by bit
    for t, row in enumerate(tables.bitmap.tolist()):
        popcounts = [word.bit_count() for word in row]
        assert tables.rank[t].tolist() == (start + np.cumsum([0] + popcounts[:-1])).tolist()
        codes_t, piece = tables.buckets(t)
        nonempty = np.flatnonzero(counts[t])
        first = np.cumsum(counts[t]) - counts[t]
        assert codes_t.tolist() == nonempty.tolist()
        assert piece.tolist() == first[nonempty].tolist() + [n]
        start += sum(popcounts) + 1
    assert start == tables.offsets.size and tables.rank[0, 0] == 0


class TestBucketAgainstTheCodes:
    """``bucket`` checked against the records' hash codes alone, an oracle
    that reads neither the directory nor ``buckets``."""

    @pytest.fixture(scope="class", params=[1, 6, 7, 16])
    def built(self, request):
        bits = request.param
        rng = np.random.default_rng(40 + bits)
        params = BoiParams(num_tables=3, hash_bits=bits, initial_probe_count=1, seed=bits)
        data = VectorSet(rng.standard_normal((400, 6)).astype(np.float32))
        tables = insert_all(make_projections(params, 6), bits, data)
        return tables, hash_codes_all(tables.sign_filter, data.vectors)

    @staticmethod
    def expected(tables, codes, t, c) -> np.ndarray:
        # the records of table t's code c, in ascending internal id
        order = tables.order
        return order[np.flatnonzero(codes[order, t] == c)]

    @staticmethod
    def codes_to_check(tables, codes, t) -> list:
        """Every code at small b; at b = 16 a sample, both ends of the code
        range, and the first and last non-empty codes with their neighbours."""
        if tables.bits < 16:
            return list(range(tables.num_buckets))
        present = np.unique(codes[:, t]).tolist()
        rng = np.random.default_rng(t)
        edges = [present[0] - 1, present[0], present[0] + 1,
                 present[-1] - 1, present[-1], present[-1] + 1]
        sample = rng.integers(0, tables.num_buckets, 200).tolist() + present[::7]
        return sorted({0, tables.num_buckets - 1, *sample} | {
            c for c in edges if 0 <= c < tables.num_buckets
        })

    def test_each_bucket_holds_the_records_of_its_code(self, built):
        tables, codes = built
        for t in range(tables.num_tables):
            for c in self.codes_to_check(tables, codes, t):
                got = tables.bucket([t], [c])
                assert got.dtype == np.int32
                assert np.array_equal(got, self.expected(tables, codes, t, c)), (t, c)

    def test_one_call_keeps_the_pairs_order(self, built):
        tables, codes = built
        rng = np.random.default_rng(tables.bits)
        # repeated pairs, tables out of order, and half the codes of records
        rows = rng.integers(0, tables.num_tables, 60)
        picks = np.where(
            np.arange(60) % 2,
            codes[rng.integers(0, tables.n, 60), rows],
            rng.integers(0, tables.num_buckets, 60),
        )
        rows, picks = np.tile(rows, 2)[::-1], np.tile(picks, 2)[::-1]
        expected = np.concatenate(
            [self.expected(tables, codes, t, c) for t, c in zip(rows, picks)]
        )
        assert np.array_equal(tables.bucket(rows, picks), expected)


@pytest.mark.parametrize("bits", [6, 16])
def test_bucket_and_buckets_refuse_input_out_of_range(bits):
    rng = np.random.default_rng(bits)
    params = BoiParams(num_tables=3, hash_bits=bits, initial_probe_count=1, seed=2)
    data = VectorSet(rng.standard_normal((50, 4)).astype(np.float32))
    tables = insert_all(make_projections(params, 4), bits, data)
    for t in (-1, 3):
        with pytest.raises(ValueError, match=rf"table {t} is not in \[0, 3\)"):
            tables.buckets(t)
        with pytest.raises(ValueError, match=rf"table {t} is not in \[0, 3\)"):
            tables.bucket([0, t], [0, 0])
    # a negative code must not wrap onto a bucket of the table's last word
    for c in (-1, -59, 1 << bits):
        with pytest.raises(ValueError, match=rf"a code is not in \[0, 2\*\*{bits}\)"):
            tables.bucket([0, 0], [0, c])
    # one code is not broadcast over two tables, nor 2-D pairs flattened
    for rows, codes in (([0, 1], [5]), ([0], [5, 6]), ([[0, 1]], [[5, 6]])):
        with pytest.raises(ValueError, match="differ or are not 1-D"):
            tables.bucket(rows, codes)


def hamming(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def rows_of(centers, bits, masks, budget=None, dots=None) -> np.ndarray:
    """Probe rows of one table per center over the plan ``masks``: every
    table probes ``budget`` neighbors (the whole plan when omitted), and
    ``dots`` (L*bits float32, all 1 when omitted) order a partly probed
    shell."""
    centers = np.array(centers, CODE_DTYPE)
    budget = masks.size - 1 if budget is None else budget
    dists = np.array([bin(int(m)).count("1") for m in masks], np.uint8)
    plan = _bound_plan(
        bits, masks, dists, np.ones(masks.size, np.uint32),
        np.full(centers.size, budget, np.int64),
    )
    if dots is None:
        dots = np.ones(centers.size * bits)
    return neighbor_codes_with_distance(centers, np.asarray(dots, np.float32), plan)


class TestNeighborCodes:
    """Probe rows: codes XOR the masks of one ``probe_plan``, a partly
    probed last shell ordered by the query's margins."""

    def test_one_bit_shell_is_exact(self):
        center = 0b10110001
        masks, dists = probe_plan(8, 8)
        got = rows_of([center], 8, masks)[0]
        expected = {center ^ (1 << j) for j in range(8)}
        assert got[0] == center and dists.tolist() == [0] + [1] * 8
        assert set(int(c) for c in got[1:]) == expected

    def test_spill_into_second_shell(self):
        # enumeration oracle: group all codes by Hamming distance from center
        center = 37
        bits = 8
        by_shell = {}
        for code in range(1 << bits):
            if code != center:
                by_shell.setdefault(hamming(code, center), set()).add(code)
        masks = probe_plan(bits, 10)[0]
        dots = np.random.default_rng(37).standard_normal(bits)
        codes = rows_of([center], bits, masks, 10, dots)[0]
        got = [int(c) for c in codes]
        # the center, then whole shells: all of shell 2, not just 2 codes
        assert got[0] == center
        assert set(got[1:9]) == by_shell[1]
        assert set(got[9:]) == by_shell[2]
        assert len(got) == 1 + 8 + 28

    def test_zero_count(self):
        masks, dists = probe_plan(4, 0)
        codes = rows_of([3], 4, masks)
        assert codes.tolist() == [[3]] and dists.tolist() == [0]

    def test_count_too_large(self):
        # no plan reaches past the 2**bits - 1 other codes
        for bits in (1, 4, 8):
            with pytest.raises(ValueError, match="count must be in"):
                probe_plan(bits, 1 << bits)

    def test_array_of_centers(self):
        centers = np.array([0, 9, 37, 255], CODE_DTYPE)
        masks, dists = probe_plan(8, 12)
        dots = np.random.default_rng(9).standard_normal(4 * 8)
        codes = rows_of(centers, 8, masks, 12, dots)
        assert codes.shape == (4, 37) and codes.dtype == CODE_DTYPE
        assert dists.shape == (37,)
        for center, row in zip(centers, codes):
            assert len(set(row.tolist())) == 37
            assert [hamming(int(c), int(center)) for c in row] == dists.tolist()
        one_row = rows_of(centers[2:3], 8, masks, 12, dots[16:24])
        assert np.array_equal(codes[2], one_row[0])

    def test_reported_distances_are_true_distances(self):
        # every center of a 6-bit code space, over its whole plan
        masks, dists = probe_plan(6, 63)
        centers = np.arange(64, dtype=CODE_DTYPE)
        for center, row in zip(centers, rows_of(centers, 6, masks)):
            assert [hamming(int(c), int(center)) for c in row] == dists.tolist()

    # Each table's dot products, far from ties, its code (bit j set where
    # dot j >= 0), and the first count + 1 codes of its row: the center,
    # the whole shells in ``itertools.combinations`` order of their set
    # bits, then the partly probed shell by ascending sum of |dot| over
    # the bits a mask flips. Row 0 at b=8: bits 3 and 1 (0.05 + 0.2), then
    # 3 and 5 (0.05 + 0.3), masks 10 and 40. At b=16 and count 5: the five
    # smallest margins, bits 10, 1, 13, 4 and 15.
    DOTS_B8 = [
        [0.9, -0.2, 0.6, 0.05, -0.8, 0.3, 0.7, -0.4],
        [-0.15, 0.55, -0.95, 0.35, 0.75, -0.65, 0.25, 0.45],
        [0.5, 0.1, -0.7, -0.3, 0.85, 0.2, -0.6, 0.4],
    ]
    PINNED_ROWS_B8 = [
        [109, 108, 111, 105, 101, 125, 77, 45, 237, 103, 69],
        [218, 219, 216, 222, 210, 202, 250, 154, 90, 155, 211],
        [179, 178, 177, 183, 187, 163, 147, 243, 51, 145, 185],
    ]
    DOTS_B16 = [[
        0.61, -0.07, 0.33, -0.92, 0.18, 0.84, -0.45, 0.27,
        -0.71, 0.52, 0.03, -0.39, 0.96, -0.12, 0.66, -0.24,
    ]]
    PINNED_ROW_B16 = [
        22197, 22196, 22199, 22193, 22205, 22181, 22165, 22261, 22069, 22453,
        21685, 21173, 24245, 18101, 30389, 5813, 54965, 21175, 29365, 30391,
        21157,
    ]

    @pytest.mark.parametrize(
        "dots, count, bits, pinned",
        [
            (DOTS_B8, 10, 8, PINNED_ROWS_B8),
            (DOTS_B16, 20, 16, [PINNED_ROW_B16]),
            (DOTS_B16, 5, 16, [[22197, 21173, 22199, 30389, 22181, 54965]]),
        ],
        ids=["b8", "b16", "b16-shell1"],
    )
    def test_probe_order_is_pinned(self, dots, count, bits, pinned):
        centers = [sum(1 << j for j, d in enumerate(row) if d >= 0) for row in dots]
        assert centers == [row[0] for row in pinned]
        masks, dists = probe_plan(bits, count)
        codes = rows_of(centers, bits, masks, count, np.ravel(dots))
        assert codes[:, : count + 1].tolist() == pinned
        assert dists.tolist()[: count + 1] == [
            hamming(c, centers[0]) for c in pinned[0]
        ]


class TestProbePlan:
    def test_center_then_whole_shells(self):
        masks, dists = probe_plan(8, 10)
        assert masks[0] == 0 and dists[0] == 0
        assert masks.size == dists.size == 1 + 8 + 28
        assert np.array_equal(masks[:9], probe_plan(8, 8)[0])
        assert dists.tolist() == [0] + [1] * 8 + [2] * 28

    def test_zero_count_is_the_center_alone(self):
        masks, dists = probe_plan(4, 0)
        assert masks.tolist() == [0] and dists.tolist() == [0]

    def test_whole_code_space(self):
        masks, dists = probe_plan(6, 63)
        assert sorted(masks.tolist()) == list(range(64))
        assert dists.tolist() == [bin(int(m)).count("1") for m in masks]

    def test_shell_sizes(self):
        for bits in (1, 4, 8):
            dists = probe_plan(bits, (1 << bits) - 1)[1]
            sizes = [comb(bits, d) for d in range(bits + 1)]
            assert np.bincount(dists).tolist() == sizes

    @pytest.mark.parametrize("bits", range(1, MAX_HASH_BITS + 1))
    def test_matches_masks_sorted_by_popcount_then_positions(self, bits):
        # an oracle that never calls combinations: all 2**bits masks by
        # popcount, then by their ascending set-bit positions, cut after
        # the shell of the count-th neighbor
        positions = [[p for p in range(bits) if m >> p & 1] for m in range(1 << bits)]
        order = sorted(
            range(1 << bits), key=lambda m: (len(positions[m]), positions[m])
        )
        want = np.array(order, dtype=CODE_DTYPE)
        want_dists = np.array([len(positions[m]) for m in order], dtype=np.uint8)
        if bits <= 10:
            counts = range(1 << bits)
        else:
            sampled = np.random.default_rng(bits).integers(0, 1 << bits, 24).tolist()
            counts = sorted({0, 1, bits, bits + 1, (1 << bits) - 1, *sampled})
        for count in counts:
            end = np.searchsorted(want_dists, want_dists[count], side="right")
            masks, dists = probe_plan(bits, count)
            assert masks.dtype == CODE_DTYPE and dists.dtype == np.uint8
            assert np.array_equal(masks, want[:end]), count
            assert np.array_equal(dists, want_dists[:end]), count

    @pytest.mark.parametrize("bits, count", [(4, -1), (4, 16), (17, 1), (0, 0)])
    def test_rejects_bad_arguments(self, bits, count):
        with pytest.raises(ValueError):
            probe_plan(bits, count)


@given(bits=st.integers(1, 10), data=st.data())
@settings(max_examples=150, deadline=None)
def test_neighbor_codes_properties(bits, data):
    max_count = data.draw(st.integers(0, (1 << bits) - 1))
    center = data.draw(st.integers(0, (1 << bits) - 1))
    # coarse margins tie often; the largest float32 overflows a sum of two
    dots = data.draw(
        st.lists(
            st.sampled_from([0.0, -0.5, 0.5, 1.0, -2.0, 3.4e38, np.inf, np.nan]),
            min_size=bits, max_size=bits,
        )
    )
    masks, plan_dists = probe_plan(bits, max_count)
    codes = rows_of([center], bits, masks, max_count, dots)[0]
    assert codes.tolist() == margin_rows([center], np.float32(dots), masks, [max_count], bits)[0]
    as_ints = [int(c) for c in codes]
    assert as_ints[0] == center
    assert len(set(as_ints)) == len(as_ints)
    dists = [hamming(c, center) for c in as_ints]
    assert dists == plan_dists.tolist()
    assert dists == sorted(dists)  # non-decreasing shells
    # whole shells, and no more of them than max_count neighbors need
    last = dists[-1]
    assert dists.count(last) == comb(bits, last)
    assert len(as_ints) - 1 - comb(bits, last) < max_count or last == 0


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


@pytest.mark.parametrize(
    "num_tables, bits, n, dim, expected",
    [
        (5, 10, 3000, 12, {
            "min": 0, "max": 54, "mean": 2.9296875, "empty_fraction": 0.3904296875,
            "histogram": {"0": 1999, "1": 851, "2-3": 898, "4-7": 781, "8-15": 448,
                          "16-63": 143, "64-255": 0, "256-1023": 0, ">=1024": 0},
        }),
        (3, 2, 400, 6, {
            "min": 52, "max": 154, "mean": 100.0, "empty_fraction": 0.0,
            "histogram": {"0": 0, "1": 0, "2-3": 0, "4-7": 0, "8-15": 0,
                          "16-63": 2, "64-255": 10, "256-1023": 0, ">=1024": 0},
        }),
        (2, 16, 0, 3, {
            "min": 0, "max": 0, "mean": 0.0, "empty_fraction": 1.0,
            "histogram": {"0": 131072, "1": 0, "2-3": 0, "4-7": 0, "8-15": 0,
                          "16-63": 0, "64-255": 0, "256-1023": 0, ">=1024": 0},
        }),
    ],
    ids=["some-empty", "none-empty", "all-empty"],
)
def test_occupancy_summary_is_pinned(num_tables, bits, n, dim, expected):
    # the values a dense (L, 2**b + 1) offsets array gave for these builds;
    # the summary now reads the non-empty buckets' sizes from the directory
    # and counts every other bucket as empty
    rng = np.random.default_rng(6)
    params = BoiParams(
        num_tables=num_tables, hash_bits=bits,
        initial_probe_count=min(10, (1 << bits) - 1), seed=3,
    )
    data = VectorSet(rng.standard_normal((n, dim)).astype(np.float32))
    tables = insert_all(make_projections(params, dim), bits, data)
    stats = occupancy_summary(tables)
    assert stats == {"num_tables": num_tables, "buckets_per_table": 1 << bits, **expected}
