import ctypes
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boi import vote


def test_first_call_compiles_into_the_cache_dir(tmp_path):
    cache = tmp_path / "cache"
    library = vote.build_library(cache)
    assert library.parent == cache and library.is_file()
    # the temporary the compiler wrote was renamed into place
    assert list(cache.iterdir()) == [library]
    assert vote.load_kernel(cache).restype is ctypes.c_int64


def test_second_call_reuses_the_library(tmp_path, monkeypatch):
    first = vote.build_library(tmp_path)
    mtime = first.stat().st_mtime_ns
    # no compiler is needed once the library is cached
    monkeypatch.setattr(shutil, "which", lambda name: None)
    again = vote.build_library(tmp_path)
    assert again == first and again.stat().st_mtime_ns == mtime


def test_changed_source_gets_a_new_name(tmp_path):
    edited = tmp_path / "vote.c"
    edited.write_bytes(vote.SOURCE.read_bytes() + b"/* edited */\n")
    cache = tmp_path / "cache"
    original = vote.build_library(cache)
    changed = vote.build_library(cache, edited)
    assert changed != original
    assert sorted(cache.iterdir()) == sorted([original, changed])


def test_no_compiler_raises_import_error_naming_cc(tmp_path, monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    with pytest.raises(ImportError, match="`cc`"):
        vote.build_library(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_import_without_compiler_names_cc(tmp_path):
    # a fresh interpreter with an empty cache and no `cc` on PATH
    src = str(Path(vote.__file__).resolve().parent.parent)
    env = {"PATH": "", "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", "import boi"], env=env, capture_output=True, text=True
    )
    assert done.returncode != 0
    assert "ImportError" in done.stderr and "`cc`" in done.stderr


def test_failed_compile_raises_import_error(tmp_path):
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    cache = tmp_path / "cache"
    with pytest.raises(ImportError, match="failed to compile"):
        vote.build_library(cache, broken)
    assert list(cache.iterdir()) == []


def _arrays():
    """Two 2-bit tables over 4 records, one record per bucket; each probes
    bucket 0 (distance 0) and bucket 1 (distance 1)."""
    offsets = np.tile(np.arange(5, dtype=np.int32), (2, 1))
    members = np.tile(np.arange(4, dtype=np.int32), (2, 1))
    probes = np.tile(np.array([0, 1], dtype=np.uint16), (2, 1))
    dists = np.array([0, 1], dtype=np.uint8)
    budgets = np.ones(2, dtype=np.int64)
    return offsets, members, probes, dists, budgets, np.zeros(4, np.int32)


def test_gather_vote_sums_and_counts():
    args = _arrays()
    assert vote.gather_vote(*args) == 4
    assert args[-1].tolist() == [8, 4, 0, 0]


def test_gather_vote_reads_strided_rows_in_place():
    offsets, members, *rest = _arrays()
    wide = np.zeros((2, 9), dtype=np.int32)
    wide[:, :4] = members
    assert vote.gather_vote(offsets, wide[:, :4], *rest) == 4
    assert rest[-1].tolist() == [8, 4, 0, 0]


@pytest.mark.parametrize(
    "position, replacement",
    [
        (4, np.ones(1, np.int64)),  # budgets shorter than L
        (3, np.zeros(1, np.uint8)),  # dists shorter than a probe row
        (5, np.zeros(5, np.int32)),  # votes not n long
        (1, np.zeros((2, 8), np.int32)[:, ::2]),  # gaps between ids of a row
        (0, np.zeros((2, 4), np.int32)),  # offsets not 2**b + 1 wide
    ],
    ids=["budgets", "dists", "votes", "member-gaps", "offsets-width"],
)
def test_gather_vote_rejects_disagreeing_shapes(position, replacement):
    args = list(_arrays())
    args[position] = replacement
    with pytest.raises(ValueError, match="shapes or strides"):
        vote.gather_vote(*args)


@pytest.mark.parametrize(
    "position, value",
    [(4, 2), (2, 4), (3, 3)],  # budget past the row, code past 2**b, dist past b
    ids=["budget", "code", "dist"],
)
def test_gather_vote_rejects_out_of_range_probes(position, value):
    args = list(_arrays())
    args[position].flat[-1] = value
    with pytest.raises(ValueError, match="corrupt hash table"):
        vote.gather_vote(*args)


def test_gather_vote_counts_ids_stored_out_of_order():
    # one 1-bit table over 30k records, so the ids span 4 tiles of 8192:
    # bucket 0 holds the even ids in descending order, bucket 1 the odd
    # ids ascending; a descending bucket is added in later tiles, exactly
    n = 30_000
    members = np.concatenate((np.arange(n - 2, -1, -2), np.arange(1, n, 2)))
    offsets = np.array([[0, n // 2, n]], dtype=np.int32)
    probes = np.array([[0, 1]], dtype=np.uint16)
    dists = np.array([0, 1], dtype=np.uint8)
    votes = np.zeros(n, np.int32)
    scanned = vote.gather_vote(
        offsets, members.astype(np.int32)[np.newaxis, :], probes, dists,
        np.ones(1, np.int64), votes,
    )
    assert scanned == n
    assert np.array_equal(votes, np.where(np.arange(n) % 2 == 0, 2, 1))
