import hashlib
import struct
import sys
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boi import hashing
from boi.core import _U32_FIELDS, SCHEDULE_KINDS, BoiParams, VectorSet
from boi.data_io import (
    _FIELD_AT,
    _FIELDS,
    FormatError,
    _read_native_into,
    load_index,
    read_fvecs,
    read_ivecs,
    save_index,
    write_fvecs,
    write_ivecs,
)
from boi.index import BoiIndex, accumulate, build_index, query
from hand_tables import from_record_ids


def _header_sizes(raw) -> tuple[int, int, int, int]:
    """num_tables, hash_bits, dim and n of snapshot bytes."""
    return tuple(
        struct.unpack_from("<" + dict(_FIELDS)[name], raw, _FIELD_AT[name])[0]
        for name in ("num_tables", "hash_bits", "dim", "n")
    )


def table_fields(raw) -> list[dict]:
    """Each table record of version 5 snapshot bytes: the byte offset of
    its projections and their crc32, and ``pages``, one dict a page of
    2**16 ids, with the byte offset of the page's bitmap, sizes and ids
    (None in table 0, which stores none) and its k. Table 0's record also
    gives the offset of ``order``. The record's ``bitmap``, ``sizes`` and
    ``k`` are its page 0's, and its ``ids`` page 0's ids, or, in table 0,
    the order, which stands in its place."""
    num_tables, bits, dim, n = _header_sizes(raw)
    words = max(1, (1 << bits) >> 6)
    at, records = 68, []
    for t in range(num_tables):
        crc = at + 4 * bits * dim
        record = {"projections": at, "crc": crc, "pages": []}
        at = crc + 4
        for first in range(0, max(n, 1), 1 << 16):
            size = min(n - first, 1 << 16)
            bitmap, sizes = at, at + 8 * words
            k = sum(bin(w).count("1") for w in struct.unpack_from(f"<{words}Q", raw, bitmap))
            ids = sizes + 4 * k if t else None
            record["pages"].append({"bitmap": bitmap, "sizes": sizes, "k": k, "ids": ids})
            at = sizes + 4 * k + (2 * size if t else 0)
        if not t:
            record["order"] = at
            at += 4 * n
        record.update(record["pages"][0])
        record["ids"] = record["pages"][0]["ids"] if t else record["order"]
        records.append(record)
    assert at == len(raw)
    return records


def v4_table_fields(raw) -> list[dict]:
    """Each table record of version 4 snapshot bytes: the byte offset of
    its projections, their crc32, its bitmap, sizes and ids (n u32), and
    its k."""
    num_tables, bits, dim, n = _header_sizes(raw)
    words = max(1, (1 << bits) >> 6)
    at, records = 68, []
    for _ in range(num_tables):
        crc = at + 4 * bits * dim
        bitmap = crc + 4
        sizes = bitmap + 8 * words
        k = sum(bin(w).count("1") for w in struct.unpack_from(f"<{words}Q", raw, bitmap))
        ids = sizes + 4 * k
        records.append(
            {"projections": at, "crc": crc, "bitmap": bitmap, "sizes": sizes, "k": k,
             "ids": ids}
        )
        at = ids + 4 * n
    assert at == len(raw)
    return records


def reseal(raw: bytearray, table=None) -> bytearray:
    """``raw`` with the header's crc32, or table ``table``'s projections'
    crc32, made to match what they now hold."""
    if table is None:
        struct.pack_into("<I", raw, 64, zlib.crc32(raw[:64]))
    else:
        record = table_fields(raw)[table]
        crc = zlib.crc32(raw[record["projections"] : record["crc"]])
        struct.pack_into("<I", raw, record["crc"], crc)
    return raw


class TestFvecs:
    def test_format_definition(self, tmp_path):
        # dim header 2, then the two float32 components
        path = tmp_path / "one.fvecs"
        path.write_bytes(
            struct.pack("<i", 2) + struct.pack("<f", 1.0) + struct.pack("<f", 2.0)
        )
        vs = read_fvecs(path)
        assert vs.n == 1 and vs.dim == 2
        assert vs.vectors.tolist() == [[1.0, 2.0]]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.fvecs"
        path.write_bytes(b"")
        assert read_fvecs(path).n == 0

    def test_truncated_record_offset(self, tmp_path):
        path = tmp_path / "trunc.fvecs"
        good = struct.pack("<i", 3) + struct.pack("<fff", 1.0, 2.0, 3.0)
        bad = struct.pack("<i", 3) + struct.pack("<ff", 4.0, 5.0)
        path.write_bytes(good + bad)
        with pytest.raises(FormatError) as err:
            read_fvecs(path)
        assert err.value.offset == len(good)

    def test_inconsistent_dim_offset(self, tmp_path):
        path = tmp_path / "mixed.fvecs"
        rec = struct.pack("<i", 1) + struct.pack("<f", 0.5)
        bad = struct.pack("<i", 7) + struct.pack("<f", 0.5)
        path.write_bytes(rec + bad)
        with pytest.raises(FormatError) as err:
            read_fvecs(path)
        assert err.value.offset == len(rec)

    def test_non_finite_offset(self, tmp_path):
        path = tmp_path / "nan.fvecs"
        path.write_bytes(
            struct.pack("<i", 2) + struct.pack("<ff", 1.0, np.nan)
        )
        with pytest.raises(FormatError) as err:
            read_fvecs(path)
        assert err.value.offset == 4 + 4  # second component of first record

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vs = VectorSet(rng.standard_normal((1000, 24)).astype(np.float32))
        p1 = tmp_path / "a.fvecs"
        p2 = tmp_path / "b.fvecs"
        write_fvecs(p1, vs)
        loaded = read_fvecs(p1)
        assert np.array_equal(loaded.vectors, vs.vectors)
        write_fvecs(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_holds_the_vectors_and_one_chunk(self, tmp_path):
        rng = np.random.default_rng(8)
        vs = VectorSet(rng.standard_normal((100_000, 32)).astype(np.float32))
        path = tmp_path / "big.fvecs"
        write_fvecs(path, vs)
        tracemalloc.start()
        try:
            loaded = read_fvecs(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.vectors, vs.vectors)
        # reading the whole file and copying its payload out takes twice it
        assert peak < 1.6 * vs.vectors.nbytes

    def test_write_holds_one_chunk(self, tmp_path):
        rng = np.random.default_rng(9)
        vs = VectorSet(rng.standard_normal((100_000, 32)).astype(np.float32))
        path = tmp_path / "big.fvecs"
        tracemalloc.start()
        try:
            write_fvecs(path, vs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(read_fvecs(path).vectors, vs.vectors)
        # filling every record, then copying them all to bytes, takes twice
        # the payload
        assert peak < 0.25 * vs.vectors.nbytes

    def test_errors_in_a_later_chunk_keep_their_offset(self, tmp_path):
        # 132-byte records: a 1 MiB chunk holds 7943, so record 17k is in
        # the third
        at = 17_000
        path = tmp_path / "chunks.fvecs"
        write_fvecs(path, VectorSet(np.ones((20_000, 32), dtype=np.float32)))
        raw = bytearray(path.read_bytes())
        record_size = 4 + 4 * 32
        component = (at + 1) * record_size + 4 + 4 * 3  # record at + 1, column 3
        struct.pack_into("<f", raw, component, np.inf)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite") as err:
            read_fvecs(path)
        assert err.value.offset == component
        struct.pack_into("<i", raw, at * record_size, 31)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="inconsistent dimension 31") as err:
            read_fvecs(path)
        assert err.value.offset == at * record_size

    def test_write_empty(self, tmp_path):
        path = tmp_path / "zero.fvecs"
        write_fvecs(path, VectorSet(np.empty((0, 0), dtype=np.float32)))
        assert path.read_bytes() == b""
        assert read_fvecs(path).n == 0


class TestIvecs:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 1000, size=(50, 10)).astype(np.int32)
        path = tmp_path / "gt.ivecs"
        write_ivecs(path, rows)
        assert np.array_equal(read_ivecs(path), rows)

    def test_negative_ids_survive(self, tmp_path):
        # result files use -1 padding; the container must carry it
        path = tmp_path / "res.ivecs"
        write_ivecs(path, np.array([[3, -1, -1]], dtype=np.int32))
        assert read_ivecs(path).tolist() == [[3, -1, -1]]

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_ivecs(tmp_path / "x.ivecs", np.zeros(3, dtype=np.int32))

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([[2**40 + 5]], dtype=np.int64),
            np.array([[2**31]], dtype=np.uint32),
            np.array([[1.7]]),
            np.array([[np.nan]]),
            [[2**70]],
        ],
        ids=["2**40+5", "2**31", "1.7", "nan", "2**70"],
    )
    def test_rejects_values_int32_cannot_hold(self, tmp_path, rows):
        path = tmp_path / "x.ivecs"
        with pytest.raises(ValueError, match="int32"):
            write_ivecs(path, rows)
        assert not path.exists()

    def test_wider_integers_that_fit_round_trip(self, tmp_path):
        path = tmp_path / "wide.ivecs"
        write_ivecs(path, np.array([[-(2**31), 2**31 - 1]], dtype=np.int64))
        assert read_ivecs(path).tolist() == [[-(2**31), 2**31 - 1]]


@pytest.fixture()
def built(tmp_path):
    rng = np.random.default_rng(2)
    data = VectorSet(rng.standard_normal((300, 10)).astype(np.float32))
    params = BoiParams(
        num_tables=8,
        hash_bits=5,
        initial_probe_count=4,
        shortlist_size=40,
        schedule="linear",
        seed=99,
    )
    index = build_index(data, params)
    path = tmp_path / "index.boix"
    save_index(index, path)
    return index, data, path


class TestSnapshot:
    def test_round_trip_params_and_tables(self, built):
        index, data, path = built
        loaded = load_index(path, data)
        assert loaded.params == index.params
        assert loaded.dim == index.dim
        assert loaded.n == index.n
        a, b = index.tables, loaded.tables
        assert np.array_equal(a.projections, b.projections)
        assert np.array_equal(a.bitmap, b.bitmap)
        assert np.array_equal(a.rank, b.rank)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(a.order, b.order)

    def test_save_is_deterministic(self, built, tmp_path):
        index, data, path = built
        again = tmp_path / "again.boix"
        save_index(load_index(path, data), again)
        assert path.read_bytes() == again.read_bytes()

    def test_save_holds_one_table_record_at_a_time(self, tmp_path):
        rng = np.random.default_rng(5)
        data = VectorSet(rng.standard_normal((100_000, 4)).astype(np.float32))
        index = build_index(data, BoiParams(num_tables=10, hash_bits=8, seed=3))
        path = tmp_path / "big.boix"
        tracemalloc.start()
        try:
            save_index(index, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 4 MB file is ten records of about 0.4 MB each
        assert peak < path.stat().st_size / 4

    def test_load_holds_only_its_arrays(self, tmp_path):
        rng = np.random.default_rng(6)
        data = VectorSet(rng.standard_normal((1000, 4)).astype(np.float32))
        index = build_index(data, BoiParams(num_tables=10, hash_bits=16, seed=3))
        path = tmp_path / "wide.boix"
        save_index(index, path)
        tracemalloc.start()
        try:
            tables = load_index(path).tables
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = tables.projections.nbytes + tables.offsets.nbytes
        arrays += tables.bitmap.nbytes + tables.rank.nbytes
        arrays += tables.members.nbytes + tables.order.nbytes
        # 0.18 MB of arrays, where dense offsets alone were 2.6 MB; each
        # record is read straight into them, through no scratch, so only
        # small transients come on top, such as the file's read buffer
        assert peak < arrays + 32_768

    def test_build_and_load_hold_no_dense_offsets(self, tmp_path):
        # L = 4 tables of b = 16 over 2,000 records: dense (L, 2**16 + 1)
        # int32 offsets would be 1 MB, more than this budget beside them
        rng = np.random.default_rng(31)
        data = VectorSet(rng.standard_normal((2000, 8)).astype(np.float32))
        params = BoiParams(num_tables=4, hash_bits=16, seed=3)
        projections = hashing.make_projections(params, data.dim)
        members = params.num_tables * data.n * 2
        budget = members + projections.nbytes + 2 * (1 << 16) * 4
        assert params.num_tables * ((1 << 16) + 1) * 4 > budget
        path = tmp_path / "b16.boix"
        peaks = []
        tracemalloc.start()
        try:
            tables = hashing.insert_all(projections, 16, data)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            save_index(BoiIndex(params, tables, data), path)
            tracemalloc.start()
            loaded = load_index(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert loaded.tables.members.nbytes == members
        assert max(peaks) < budget, (peaks, budget)

    def test_loaded_index_answers_identically(self, built):
        index, data, path = built
        loaded = load_index(path, data)
        # one layout: the loaded arrays are the built ones, C-contiguous
        assert loaded.tables.members.flags.c_contiguous
        for name in ("projections", "bitmap", "rank", "offsets", "members", "order"):
            mine, theirs = getattr(index.tables, name), getattr(loaded.tables, name)
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        rng = np.random.default_rng(3)
        for qi in range(10):
            q = rng.standard_normal(10).astype(np.float32)
            mem = query(index, q, 5, query_index=qi)
            disk = query(loaded, q, 5, query_index=qi)
            assert np.array_equal(mem.ids, disk.ids)
            assert np.array_equal(mem.distances, disk.distances)
            assert mem.probe_count == disk.probe_count
            assert mem.pairs_scanned == disk.pairs_scanned
            assert np.array_equal(
                accumulate(index, q, query_index=qi),
                accumulate(loaded, q, query_index=qi),
            )

    def test_twins_queried_in_turn_hash_through_their_own_filters(
        self, built, monkeypatch
    ):
        index, data, path = built
        loaded = load_index(path, data)
        for twin in (index, loaded):  # each table made its filter once
            assert twin.tables.sign_filter.projections is twin.tables.projections
        qs = np.random.default_rng(4).standard_normal((10, 10)).astype(np.float32)
        alone = [[query(twin, q, 5) for q in qs] for twin in (index, loaded)]
        made = []
        make = hashing._sign_filter
        monkeypatch.setattr(
            hashing, "_sign_filter", lambda *args: made.append(args) or make(*args)
        )
        for i, q in enumerate(qs):
            for twin, answers in zip((index, loaded), alone):
                result = query(twin, q, 5)
                assert np.array_equal(result.ids, answers[i].ids)
                assert np.array_equal(result.distances, answers[i].distances)
        assert made == []  # no query makes a filter

    def test_wrong_magic_rejected(self, built, tmp_path):
        _, _, path = built
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        bad = tmp_path / "bad.boix"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_index(bad)

    def test_wrong_version_rejected(self, built, tmp_path):
        _, _, path = built
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        bad = tmp_path / "bad.boix"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_index(bad)

    def test_corrupted_length_rejected(self, built, tmp_path):
        _, _, path = built
        raw = path.read_bytes()
        bad = tmp_path / "bad.boix"
        bad.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match="length"):
            load_index(bad)

    def test_version_1_rejected(self, built, tmp_path):
        _, _, path = built
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 1)
        bad = tmp_path / "v1.boix"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version 1"):
            load_index(bad)

    def test_version_2_rejected(self, built, tmp_path):
        # a version 5 file patched to say 2: its id rows are not record ids
        _, _, path = built
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        bad = tmp_path / "v2.boix"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version 2") as err:
            load_index(bad)
        assert err.value.offset == 4

    def test_layout_is_header_then_arrays_per_table(self, built):
        index, _, path = built
        raw = path.read_bytes()
        offset = 68
        tables, bits = index.tables, index.params.hash_bits
        # the header ends with K and the crc32 of the 64 bytes before it;
        # 300 records make one page
        assert tables.num_pages == 1
        num_buckets = tables.offsets.size - tables.num_tables
        assert struct.unpack_from("<2I", raw, 60) == (num_buckets, zlib.crc32(raw[:64]))
        # table 0's members row is 0..n-1, so its record ends with the order
        # instead; the others' ids are two bytes each
        assert np.array_equal(tables.members[0], np.arange(index.n))
        for t in range(tables.num_tables):
            matrix = tables.projections[t * bits : (t + 1) * bits].astype("<f4")
            codes, piece = tables.buckets(t, 0)
            bitmap = np.zeros(max(64, 1 << bits), bool)  # whole u64 words
            bitmap[codes] = True
            for block in (
                matrix,
                np.array([zlib.crc32(matrix)], "<u4"),
                np.packbits(bitmap, bitorder="little"),
                np.diff(piece).astype("<u4"),
                tables.order.astype("<u4") if t == 0 else tables.members[t].astype("<u2"),
            ):
                assert raw[offset : offset + block.nbytes] == block.tobytes()
                offset += block.nbytes
        assert offset == len(raw)
        # 32 codes need one bitmap word
        record = 4 * bits * index.dim + 4 + 8
        ids = 4 * index.n + 2 * index.n * (tables.num_tables - 1)
        assert len(raw) == 68 + tables.num_tables * record + 4 * num_buckets + ids

    def test_counts_not_summing_to_n_rejected(self, built, tmp_path):
        _, _, path = built
        raw = bytearray(path.read_bytes())
        sizes = table_fields(raw)[0]["sizes"]
        (first,) = struct.unpack_from("<I", raw, sizes)
        struct.pack_into("<I", raw, sizes, first + 1)
        bad = tmp_path / "bad.boix"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="sum to 300 in table 0") as err:
            load_index(bad)
        assert err.value.offset == sizes

    def test_record_id_out_of_range_rejected(self, built, tmp_path):
        index, _, path = built
        raw = bytearray(path.read_bytes())
        ids = table_fields(raw)[0]["ids"]
        struct.pack_into("<I", raw, ids, index.n)
        bad = tmp_path / "bad.boix"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="out of range in table 0") as err:
            load_index(bad)
        assert err.value.offset == ids

    def test_table_0_ids_that_are_no_permutation_rejected(self, built, tmp_path):
        # two ids moved one apart keep the row's sum and range, but one
        # record is then listed twice and another never
        index, _, path = built
        raw = bytearray(path.read_bytes())
        ids = table_fields(raw)[0]["ids"]
        row = np.frombuffer(raw, "<u4", index.n, ids).copy()
        low, high = np.flatnonzero(row == 0)[0], np.flatnonzero(row == 3)[0]
        row[low], row[high] = 1, 2
        raw[ids : ids + 4 * index.n] = row.tobytes()
        bad = tmp_path / "bad.boix"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="table 0") as err:
            load_index(bad)
        assert err.value.offset == ids

    def test_hand_built_tables_round_trip(self, tmp_path):
        # buckets over record ids, table 0's not in ascending record order,
        # numbered by hand_tables; the snapshot keeps every bucket
        rng = np.random.default_rng(8)
        data = VectorSet(rng.standard_normal((30, 3)).astype(np.float32))
        params = BoiParams(num_tables=3, hash_bits=2, initial_probe_count=3, seed=2)
        codes = rng.integers(0, 4, (3, data.n))
        offsets = [[0, *np.cumsum(np.bincount(row, minlength=4))] for row in codes]
        members = [np.argsort(row, kind="stable") for row in codes]
        members[0] = np.concatenate(
            [members[0][a:b][::-1] for a, b in zip(offsets[0], offsets[0][1:])]
        )
        tables = from_record_ids(
            rng.standard_normal((6, 3), dtype=np.float32), offsets, members
        )
        assert tables.members[0].tolist() == list(range(data.n))
        index = BoiIndex(params, tables, data)
        path = tmp_path / "hand.boix"
        save_index(index, path)
        loaded = load_index(path, data)
        for name in ("projections", "bitmap", "rank", "offsets", "members", "order"):
            assert np.array_equal(getattr(loaded.tables, name), getattr(tables, name))
        for t in range(3):
            for c in range(4):
                got = loaded.tables.bucket([t], [c])
                assert sorted(got.tolist()) == sorted(np.flatnonzero(codes[t] == c))
        for qi in range(5):
            q = data.vectors[qi]
            assert np.array_equal(accumulate(loaded, q, qi), accumulate(index, q, qi))
            assert query(loaded, q, 3, qi).ids.tolist() == query(index, q, 3, qi).ids.tolist()

    def test_index_arrays_are_read_in_native_byte_order(self, tmp_path, monkeypatch):
        # the file is little-endian; a big-endian host swaps what it reads,
        # so on this host a swap must undo bytes stored in the other order
        path = tmp_path / "values.bin"
        values = [1, -2, 2**20 + 3]
        native = np.dtype(np.int32)
        for host, stored in (("little", native), ("big", native.newbyteorder())):
            path.write_bytes(np.array(values, stored).tobytes())
            monkeypatch.setattr(sys, "byteorder", host)
            arr = np.empty(3, np.int32)
            with open(path, "rb") as f:
                _read_native_into(f, arr)
            assert arr.tolist() == values

    def test_attach_dataset_later(self, built):
        index, data, path = built
        loaded = load_index(path)
        assert loaded.dataset is None
        loaded = BoiIndex(loaded.params, loaded.tables, data)
        q = data.vectors[0]
        assert query(loaded, q, 1).ids[0] == 0

    def test_attach_wrong_size_rejected(self, built):
        _, data, path = built
        loaded = load_index(path)
        with pytest.raises(ValueError):
            BoiIndex(
                loaded.params,
                loaded.tables,
                VectorSet(np.zeros((5, 10), dtype=np.float32)),
            )

    def test_strict_flag_round_trips(self, tmp_path):
        rng = np.random.default_rng(4)
        data = VectorSet(rng.standard_normal((40, 6)).astype(np.float32))
        params = BoiParams(
            num_tables=3,
            hash_bits=4,
            initial_probe_count=3,
            strict_radius=True,
            seed=1,
        )
        index = build_index(data, params)
        path = tmp_path / "strict.boix"
        save_index(index, path)
        assert load_index(path).params.strict_radius is True


# Version 5, saved from this recipe by the writer that first wrote the
# version; every later writer must read it and write the same bytes back.
OLD_WRITER_SNAPSHOT = Path(__file__).parent / "data" / "v5_L3_b4_n50.boix"
# The same index in version 4, which stored every id as u32; saved by the
# writer that first wrote that version.
V4_SNAPSHOT = Path(__file__).parent / "data" / "v4_L3_b4_n50.boix"
# The same index in version 3, which stored 2**b dense counts a table; saved
# by the writer that first wrote that version.
V3_SNAPSHOT = Path(__file__).parent / "data" / "v3_L3_b4_n50.boix"
# The same index in version 2, whose id rows all held record ids; saved by
# an earlier writer that kept one object per table.
V2_SNAPSHOT = Path(__file__).parent / "data" / "v2_L3_b4_n50.boix"
OLD_WRITER_PARAMS = BoiParams(
    num_tables=3, hash_bits=4, initial_probe_count=3, schedule="fixed", seed=17
)


def old_writer_data() -> VectorSet:
    rng = np.random.default_rng(2024)
    return VectorSet(rng.standard_normal((50, 4)).astype(np.float32))


def _up_to(top: int, low: int = 1):
    """Integers in [low, top], with ``top`` itself a branch of its own."""
    return st.one_of(st.just(top), st.integers(low, top))


@st.composite
def edge_params(draw) -> BoiParams:
    """Params of a tiny index with every u32 field and the seed up to its
    limit, any schedule, strict on or off."""
    bits = draw(st.integers(1, 3))
    return BoiParams(
        num_tables=draw(st.integers(1, 3)),
        hash_bits=bits,
        probe_radius=draw(_up_to(2**32 - 1, 0)),
        shortlist_size=draw(_up_to(2**32 - 1)),
        initial_probe_count=draw(st.integers(0, 2**bits - 1)),
        schedule=draw(st.sampled_from(SCHEDULE_KINDS)),
        linear_step=draw(_up_to(2**32 - 1)),
        sublinear_step=draw(_up_to(2**32 - 1)),
        seed=draw(_up_to(2**64 - 1, 0)),
        strict_radius=draw(st.booleans()),
    )


@given(edge_params())
@settings(max_examples=40, deadline=None)
def test_header_fields_round_trip_at_their_limits(params):
    data = VectorSet(np.random.default_rng(3).standard_normal((7, 2), np.float32))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edge.boix"
        save_index(build_index(data, params), path)
        raw = path.read_bytes()
        loaded = load_index(path, data)
        assert loaded.params == params
    expected = {
        "magic": b"BOIX",
        "version": 5,
        "dim": 2,
        "n": 7,
        "schedule_code": SCHEDULE_KINDS.index(params.schedule),
        "flags": int(params.strict_radius),
        "pad": 0,
        "buckets": loaded.tables.offsets.size - params.num_tables,
        "crc": zlib.crc32(raw[:64]),
    }
    for name, code in _FIELDS:
        value = expected[name] if name in expected else getattr(params, name)
        assert struct.unpack_from("<" + code, raw, _FIELD_AT[name]) == (value,), name
    for name in _U32_FIELDS:  # the fields BoiParams bounds by the header alone
        assert dict(_FIELDS)[name] == "I", name


class TestSnapshotCompatibility:
    def test_old_writer_file_loads_and_matches_a_build(self):
        data = old_writer_data()
        loaded = load_index(OLD_WRITER_SNAPSHOT, data)
        built = build_index(data, OLD_WRITER_PARAMS)
        assert loaded.params == OLD_WRITER_PARAMS
        for name in ("projections", "bitmap", "offsets", "members", "order"):
            assert np.array_equal(
                getattr(loaded.tables, name), getattr(built.tables, name)
            )
        for qi in range(5):
            q = data.vectors[qi * 7]
            a = query(loaded, q, 5, query_index=qi)
            b = query(built, q, 5, query_index=qi)
            assert np.array_equal(a.ids, b.ids)
            assert a.probe_count == b.probe_count

    def test_save_writes_the_old_writer_bytes(self, tmp_path):
        path = tmp_path / "same.boix"
        save_index(build_index(old_writer_data(), OLD_WRITER_PARAMS), path)
        assert path.read_bytes() == OLD_WRITER_SNAPSHOT.read_bytes()

    def test_version_2_file_is_rejected_at_its_version(self):
        with pytest.raises(FormatError, match="unsupported snapshot version 2") as err:
            load_index(V2_SNAPSHOT, old_writer_data())
        assert err.value.offset == 4

    def test_version_3_file_is_rejected_at_its_version(self):
        with pytest.raises(
            FormatError, match="unsupported snapshot version 3; rebuild .* `boi build`"
        ) as err:
            load_index(V3_SNAPSHOT, old_writer_data())
        assert err.value.offset == 4

    def test_version_4_file_is_rejected_at_its_version(self):
        with pytest.raises(
            FormatError, match="unsupported snapshot version 4; rebuild .* `boi build`"
        ) as err:
            load_index(V4_SNAPSHOT, old_writer_data())
        assert err.value.offset == 4

    def test_version_5_stores_the_ids_of_version_4_in_two_bytes(self):
        # the same params, K, projections, bitmaps and sizes; each later
        # table's u32 ids become u16, and table 0's id row, the order, moves
        # after its one page's sizes: 50 records make one page
        v4, v5 = V4_SNAPSHOT.read_bytes(), OLD_WRITER_SNAPSHOT.read_bytes()
        assert struct.unpack_from("<I", v4, 4) == (4,)
        assert struct.unpack_from("<I", v5, 4) == (5,)
        assert v4[:4] == v5[:4] and v4[8:64] == v5[8:64]
        for old, new in zip(v4_table_fields(v4), table_fields(v5)):
            assert old["k"] == new["k"]
            assert v4[old["projections"] : old["ids"]] == v5[new["projections"] : new["sizes"] + 4 * new["k"]]
            ids = np.frombuffer(v4, "<u4", 50, old["ids"])
            width = "<u4" if new["ids"] == new.get("order") else "<u2"
            assert np.array_equal(np.frombuffer(v5, width, 50, new["ids"]), ids)
        assert len(v5) == len(v4) - 2 * 50 * 2

    def test_version_4_stores_the_non_empty_buckets_of_version_3(self):
        # the same params, projections and id rows; the dense counts become
        # a bitmap of the non-zero ones and those counts alone
        v3, v4 = V3_SNAPSHOT.read_bytes(), V4_SNAPSHOT.read_bytes()
        assert struct.unpack_from("<I", v4, 4) == (4,)
        assert v3[:4] == v4[:4] and v3[8:60] == v4[8:60]
        record = 4 * (4 * 4 + 16 + 50)  # b x dim floats, 2**b counts, n ids
        num_buckets = 0
        for t, fields_at in enumerate(v4_table_fields(v4)):
            at = 60 + t * record
            assert v3[at : at + 64] == v4[fields_at["projections"] : fields_at["crc"]]
            counts = np.frombuffer(v3, "<u4", 16, at + 64)
            (word,) = struct.unpack_from("<Q", v4, fields_at["bitmap"])
            assert word == sum(1 << int(c) for c in np.flatnonzero(counts))
            sizes = np.frombuffer(v4, "<u4", fields_at["k"], fields_at["sizes"])
            assert np.array_equal(sizes, counts[counts > 0])
            ids = fields_at["ids"]
            assert v3[at + 128 : at + record] == v4[ids : ids + 200]
            num_buckets += fields_at["k"]
        assert struct.unpack_from("<I", v4, 60) == (num_buckets,)

    def test_version_3_changes_only_the_version_and_later_id_rows(self):
        # table 0's id row, the order, is version 2's record ids of table 0;
        # each bucket of a later row holds the internal ids, ascending, of
        # the records version 2 lists there
        v2, v3 = V2_SNAPSHOT.read_bytes(), V3_SNAPSHOT.read_bytes()
        assert len(v2) == len(v3)
        assert struct.unpack_from("<I", v2, 4) == (2,)
        assert struct.unpack_from("<I", v3, 4) == (3,)
        assert v2[:4] == v3[:4] and v2[8:60] == v3[8:60]
        record = 4 * (4 * 4 + 16 + 50)  # b x dim floats, 2**b counts, n ids
        counts_at, ids_at = 4 * 4 * 4, 4 * (4 * 4 + 16)
        order = np.frombuffer(v3, "<u4", 50, 60 + ids_at)
        for t in range(3):
            at = 60 + t * record
            assert v2[at : at + ids_at] == v3[at : at + ids_at]
            old = np.frombuffer(v2, "<u4", 50, at + ids_at)
            new = np.frombuffer(v3, "<u4", 50, at + ids_at)
            if t == 0:
                assert np.array_equal(old, new)
                continue
            counts = np.frombuffer(v3, "<u4", 16, at + counts_at)
            for bucket_old, bucket_new in zip(
                np.split(old, np.cumsum(counts)[:-1]),
                np.split(new, np.cumsum(counts)[:-1]),
            ):
                assert np.all(np.diff(bucket_new.astype(np.int64)) > 0)
                assert np.array_equal(np.sort(order[bucket_new]), bucket_old)

    @pytest.mark.parametrize(
        "bits, digest",
        [
            (8, "b40a439e819942e13c07629bcb09cf04473abbbc6d5e7f5ab2b15e8ae90e8142"),
            (16, "970f8076144df2fc7740c1765171b1db8366518e7287c45f62fb5be270662853"),
        ],
        ids=["b8", "b16"],
    )
    def test_save_digest_matches_old_writer(self, tmp_path, bits, digest):
        rng = np.random.default_rng(2025)
        data = VectorSet(rng.standard_normal((2000, 16)).astype(np.float32))
        params = BoiParams(num_tables=10, hash_bits=bits, seed=5)
        path = tmp_path / "big.boix"
        save_index(build_index(data, params), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_loaded_index_cannot_be_changed(self):
        index = load_index(OLD_WRITER_SNAPSHOT, old_writer_data())
        for name in ("params", "tables", "dataset", "budgets", "schedule"):
            with pytest.raises(AttributeError):
                setattr(index, name, None)
        for arr in (
            index.tables.projections,
            index.tables.offsets,
            index.tables.members,
            index.tables.order,
            index.plan.budgets,
        ):
            with pytest.raises(ValueError):
                arr.flat[0] = 0


class TestCorruptSnapshot:
    """Every damaged file either loads or raises FormatError, quickly."""

    @staticmethod
    def _loads(path) -> bool:
        try:
            load_index(path)
        except FormatError:
            return False
        return True

    def test_every_single_bit_flip(self, tmp_path):
        raw = OLD_WRITER_SNAPSHOT.read_bytes()
        path = tmp_path / "flipped.boix"
        loaded = 0
        for pos in range(len(raw)):
            for bit in range(8):
                damaged = bytearray(raw)
                damaged[pos] ^= 1 << bit
                path.write_bytes(bytes(damaged))
                loaded += self._loads(path)
        # the crc32s catch the header and projection flips; a bitmap flip
        # changes how many sizes its table reads, a size flip their sum and
        # an id flip its row's wrapping sum
        assert loaded == 0

    def test_every_single_bit_flip_of_a_member_id_raises(self, tmp_path):
        # table 0's record ends with the order, u32 record ids; the others
        # hold u16 internal ids
        raw = OLD_WRITER_SNAPSHOT.read_bytes()
        path = tmp_path / "flipped.boix"
        for t, fields_at in enumerate(table_fields(raw)):
            width = 2 if t else 4
            for pos in range(fields_at["ids"], fields_at["ids"] + width * 50):
                for bit in range(8):
                    damaged = bytearray(raw)
                    damaged[pos] ^= 1 << bit
                    path.write_bytes(bytes(damaged))
                    with pytest.raises(FormatError, match=f"table {t}"):
                        load_index(path)

    def test_every_truncation(self, tmp_path):
        raw = OLD_WRITER_SNAPSHOT.read_bytes()
        path = tmp_path / "short.boix"
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(FormatError):
                load_index(path)

    @pytest.mark.parametrize(
        "field_offset, value",
        [
            (12, 0),
            (12, 17),
            (12, 31),
            (8, 2**27),
            (20, 2**31),  # the low half of the u64 n
            (36, 16),
            (44, 0),
            (48, 0),
            (52, 0),
            (16, 2**23 - 2),  # a dim the sign filter cannot bound
            (16, 0),  # a dim no vector has
        ],
        ids=[
            "hash_bits=0",
            "hash_bits=17",
            "hash_bits=31",
            "num_tables*2**b=2**31",
            "n=2**31",
            "gamma0=2**b",
            "shortlist_size=0",
            "linear_step=0",
            "sublinear_step=0",
            "dim=2**23-2",
            "dim=0",
        ],
    )
    def test_header_values_params_reject(self, tmp_path, field_offset, value):
        # each value is reported at its own field, crc32 or not
        raw = bytearray(OLD_WRITER_SNAPSHOT.read_bytes())
        struct.pack_into("<I", raw, field_offset, value)
        path = tmp_path / "header.boix"
        for resealed in (raw, reseal(bytearray(raw))):
            path.write_bytes(bytes(resealed))
            with pytest.raises(FormatError, match="bad snapshot header") as err:
                load_index(path)
            assert err.value.offset == field_offset

    @pytest.mark.parametrize(
        "byte, value, message, offset",
        [(56, 3, "unknown schedule code 3", 56)]
        + [(57, 1 << bit, "unknown header flags", 57) for bit in range(1, 8)]
        + [(58, 1, "padding", 58), (59, 0x80, "padding", 58)],
    )
    def test_reserved_header_bytes_rejected(
        self, tmp_path, byte, value, message, offset
    ):
        raw = bytearray(OLD_WRITER_SNAPSHOT.read_bytes())
        assert raw[56:60] == b"\x00\x00\x00\x00"  # save_index writes zeros
        raw[byte] |= value
        path = tmp_path / "reserved.boix"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=message) as err:
            load_index(path)
        assert err.value.offset == offset

    def test_strict_flag_still_loads(self, tmp_path):
        raw = bytearray(OLD_WRITER_SNAPSHOT.read_bytes())
        raw[57] |= 0x01
        path = tmp_path / "strict.boix"
        path.write_bytes(bytes(reseal(raw)))
        assert load_index(path).params.strict_radius

    def test_counts_that_wrap_int32_rejected(self, tmp_path):
        # 2**32 - 1 + (51 - (k - 2)) + (k - 2) wraps to 50 in 32 bits: the
        # sum must be taken exactly
        raw = bytearray(OLD_WRITER_SNAPSHOT.read_bytes())
        table_0 = table_fields(raw)[0]
        k, sizes = table_0["k"], table_0["sizes"]
        struct.pack_into(f"<{k}I", raw, sizes, 2**32 - 1, 51 - (k - 2), *[1] * (k - 2))
        path = tmp_path / "wrap.boix"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="sum to 50 in table 0") as err:
            load_index(path)
        assert err.value.offset == sizes

    def test_empty_bucket_rejected(self, tmp_path):
        # a size of 0 moved onto the next size keeps the sum n
        raw = bytearray(OLD_WRITER_SNAPSHOT.read_bytes())
        table_1 = table_fields(raw)[1]
        sizes = table_1["sizes"]
        first, second = struct.unpack_from("<2I", raw, sizes)
        struct.pack_into("<2I", raw, sizes, 0, first + second)
        path = tmp_path / "empty.boix"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="a bucket size of 0 in table 1") as err:
            load_index(path)
        assert err.value.offset == sizes

    def test_bit_past_2_bits_rejected(self, tmp_path):
        # b = 4: bits 16-63 of the one word stand for no code
        raw = bytearray(OLD_WRITER_SNAPSHOT.read_bytes())
        bitmap = table_fields(raw)[2]["bitmap"]
        raw[bitmap + 2] |= 1
        path = tmp_path / "past.boix"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="table 2 has a bit set .* past 2\\*\\*4") as err:
            load_index(path)
        assert err.value.offset == bitmap

    @pytest.mark.parametrize("change", [-1, 1])
    def test_buckets_that_do_not_match_the_bitmaps_rejected(self, tmp_path, change):
        # K one off, and the file one size shorter or longer to match it:
        # the last table's bitmap marks one bucket more or less than K leaves
        raw = bytearray(OLD_WRITER_SNAPSHOT.read_bytes())
        (num_buckets,) = struct.unpack_from("<I", raw, 60)
        struct.pack_into("<I", raw, 60, num_buckets + change)
        raw = reseal(raw) + bytes(4) if change > 0 else reseal(raw)[:-4]
        bitmap = table_fields(OLD_WRITER_SNAPSHOT.read_bytes())[2]["bitmap"]
        path = tmp_path / "buckets.boix"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="bitmap of table 2 marks") as err:
            load_index(path)
        assert err.value.offset == bitmap

    @pytest.mark.parametrize("value", [0, 2, 3 * 16 + 1])
    def test_buckets_no_tables_can_hold_rejected(self, tmp_path, value):
        # 3 tables of 50 records hold from 3 to 3 * 16 non-empty buckets
        raw = bytearray(OLD_WRITER_SNAPSHOT.read_bytes())
        struct.pack_into("<I", raw, 60, value)
        path = tmp_path / "buckets.boix"
        path.write_bytes(bytes(reseal(raw)))
        with pytest.raises(FormatError, match=f"header: {value} non-empty") as err:
            load_index(path)
        assert err.value.offset == 60

    def test_header_crc_mismatch_rejected(self, tmp_path):
        # a seed the header can hold, but not the one its crc32 covers
        raw = bytearray(OLD_WRITER_SNAPSHOT.read_bytes())
        raw[28] ^= 1
        path = tmp_path / "seed.boix"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="header fails its crc32") as err:
            load_index(path)
        assert err.value.offset == 64

    def test_projection_crc_mismatch_rejected(self, tmp_path):
        raw = bytearray(OLD_WRITER_SNAPSHOT.read_bytes())
        at = table_fields(raw)[1]["projections"]
        raw[at] ^= 1
        path = tmp_path / "projection.boix"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="projections of table 1 fail") as err:
            load_index(path)
        assert err.value.offset == at

    def test_non_finite_projection_rejected(self, tmp_path):
        # with the crc32 made to match, the value itself is refused
        raw = bytearray(OLD_WRITER_SNAPSHOT.read_bytes())
        at = table_fields(raw)[1]["projections"]
        struct.pack_into("<f", raw, at, float("nan"))
        path = tmp_path / "nan.boix"
        path.write_bytes(bytes(reseal(raw, table=1)))
        with pytest.raises(FormatError, match="non-finite projection in table 1") as err:
            load_index(path)
        assert err.value.offset == at

    def test_huge_probe_radius_loads(self, tmp_path):
        raw = bytearray(OLD_WRITER_SNAPSHOT.read_bytes())
        struct.pack_into("<I", raw, 40, 2**31 + 1)  # probe_radius
        path = tmp_path / "radius.boix"
        path.write_bytes(bytes(reseal(raw)))
        assert load_index(path).params.probe_radius == 2**31 + 1
