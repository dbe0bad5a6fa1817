import struct

import numpy as np
import pytest

from boi.core import BoiParams, VectorSet
from boi.data_io import (
    FormatError,
    load_index,
    read_fvecs,
    read_ivecs,
    save_index,
    write_fvecs,
    write_ivecs,
)
from boi.index import accumulate, build_index, query


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
        for a, b in zip(index.tables, loaded.tables):
            assert np.array_equal(a.projections, b.projections)
            assert np.array_equal(a.bucket_offsets, b.bucket_offsets)
            assert np.array_equal(a.bucket_members, b.bucket_members)

    def test_save_is_deterministic(self, built, tmp_path):
        index, data, path = built
        again = tmp_path / "again.boix"
        save_index(load_index(path, data), again)
        assert path.read_bytes() == again.read_bytes()

    def test_loaded_index_answers_identically(self, built):
        index, data, path = built
        loaded = load_index(path, data)
        rng = np.random.default_rng(3)
        for qi in range(10):
            q = rng.standard_normal(10).astype(np.float32)
            mem = query(index, q, 5, query_index=qi)
            disk = query(loaded, q, 5, query_index=qi)
            assert np.array_equal(mem.ids, disk.ids)
            assert np.array_equal(mem.distances, disk.distances)
            assert mem.probe_count == disk.probe_count
            assert np.array_equal(
                accumulate(index, q, query_index=qi),
                accumulate(loaded, q, query_index=qi),
            )

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

    def test_layout_is_header_then_arrays_per_table(self, built):
        index, _, path = built
        raw = path.read_bytes()
        offset = 60
        for table in index.tables:
            for block in (
                table.projections.astype("<f4"),
                table.bucket_sizes().astype("<u4"),
                table.bucket_members.astype("<u4"),
            ):
                assert raw[offset : offset + block.nbytes] == block.tobytes()
                offset += block.nbytes
        assert offset == len(raw)

    @staticmethod
    def _first_table_blocks(index):
        """Byte offsets of table 0's bucket counts and record ids."""
        counts = 60 + 4 * index.params.hash_bits * index.dim
        return counts, counts + 4 * index.params.num_buckets

    def test_counts_not_summing_to_n_rejected(self, built, tmp_path):
        index, _, path = built
        counts, _ = self._first_table_blocks(index)
        raw = bytearray(path.read_bytes())
        (first,) = struct.unpack_from("<I", raw, counts)
        struct.pack_into("<I", raw, counts, first + 1)
        bad = tmp_path / "bad.boix"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="sum to"):
            load_index(bad)

    def test_record_id_out_of_range_rejected(self, built, tmp_path):
        index, _, path = built
        _, ids = self._first_table_blocks(index)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, ids, index.n)
        bad = tmp_path / "bad.boix"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="out of range"):
            load_index(bad)

    def test_attach_dataset_later(self, built):
        index, data, path = built
        loaded = load_index(path)
        assert loaded.dataset is None
        loaded.attach_dataset(data)
        q = data.vectors[0]
        assert query(loaded, q, 1).ids[0] == 0

    def test_attach_wrong_size_rejected(self, built):
        _, data, path = built
        loaded = load_index(path)
        with pytest.raises(ValueError):
            loaded.attach_dataset(
                VectorSet(np.zeros((5, 10), dtype=np.float32))
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
