"""Tables of more than one page: each table keeps its ids as uint16 in
pages of 2**16 records (``vote.c``'s header comment). Record counts just
below, at and past a page's edge, with small dim and L, at b = 1, 4 and 16."""

import numpy as np
import pytest

from boi import vote
from boi.core import BoiParams, VectorSet, brute_force_query
from boi.data_io import FormatError, load_index, save_index
from boi.hashing import ProjectionTable, hash_codes_all
from boi.index import BoiIndex, accumulate, build_index, query
from test_io import table_fields

PAGE = 1 << 16
COUNTS = [1, PAGE - 1, PAGE, PAGE + 1, 2 * PAGE + 1]
BITS = [1, 4, 16]


@pytest.fixture(scope="module", params=COUNTS, ids=lambda n: f"n={n}")
def data(request):
    n = request.param
    rng = np.random.default_rng(n)
    return VectorSet(rng.standard_normal((n, 4)).astype(np.float32))


@pytest.fixture(scope="module", params=BITS, ids=lambda b: f"b{b}")
def index(request, data):
    """Two tables that probe every bucket and re-rank every voted record."""
    bits = request.param
    params = BoiParams(
        num_tables=2, hash_bits=bits, initial_probe_count=(1 << bits) - 1,
        probe_radius=bits, schedule="fixed", shortlist_size=data.n, seed=bits,
    )
    return build_index(data, params)


def test_the_pages_of_n_records(data, index):
    tables = index.tables
    assert tables.num_pages == vote.num_pages(data.n) == max(1, -(-data.n // PAGE))
    assert tables.members.dtype == np.uint16
    words = vote.directory_words(tables.bits)
    assert tables.bitmap.shape == tables.rank.shape == (2, tables.num_pages, words)
    for page, size in enumerate(vote.page_sizes(data.n)):
        # row 0 holds 0, 1, 2, ... in each page; every row holds each of
        # the page's ids once, less its first id
        first = page * PAGE
        for row in tables.members:
            assert np.array_equal(np.sort(row[first : first + size]), np.arange(size))
        assert np.array_equal(tables.members[0, first : first + size], np.arange(size))
        for t in range(tables.num_tables):
            piece = tables.piece(t, page)
            assert piece[0] == first and piece[-1] == first + size
    assert tables.nbytes == sum(
        getattr(tables, name).nbytes
        for name in ("projections", "bitmap", "rank", "offsets", "members", "order")
    )


def test_full_probe_query_equals_brute_force(data, index):
    rng = np.random.default_rng(7)
    for qi in rng.integers(0, data.n, 3).tolist():
        q = data.vectors[qi] + np.float32(0.01)
        got = query(index, q, 10, qi)
        want = brute_force_query(data, q, 10)
        assert got.ids.tobytes() == want.ids.tobytes()
        assert got.distances.tobytes() == want.distances.tobytes()
        # every record of every table is scanned once
        assert got.pairs_scanned == 2 * data.n
    assert np.all(accumulate(index, data.vectors[0]) > 0)


def test_bucket_ids_equal_a_numpy_oracle(data, index):
    tables = index.tables
    codes = hash_codes_all(tables.sign_filter, data.vectors)
    order = tables.order
    rng = np.random.default_rng(tables.bits)
    for t in range(tables.num_tables):
        present = np.unique(codes[:, t])
        picks = np.unique(np.concatenate([present[:3], present[-3:], rng.choice(present, 5)]))
        for c in [*picks.tolist(), int(present[-1]) ^ 1]:
            # the records of code c, in ascending internal id
            want = order[np.flatnonzero(codes[order, t] == c)]
            assert np.array_equal(tables.bucket([t], [c]), want), (t, c)


def test_save_and_load_round_trip(tmp_path, data, index):
    path, again = tmp_path / "pages.boix", tmp_path / "again.boix"
    save_index(index, path)
    loaded = load_index(path, data)
    for name in ("projections", "bitmap", "rank", "offsets", "members", "order"):
        mine, theirs = getattr(index.tables, name), getattr(loaded.tables, name)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name
    save_index(loaded, again)
    assert path.read_bytes() == again.read_bytes()
    q = data.vectors[data.n // 2]
    assert query(loaded, q, 5).ids.tobytes() == query(index, q, 5).ids.tobytes()


@pytest.fixture(scope="module")
def two_pages():
    """A b = 4 index of 2**16 + 3 records, so page 1 holds 3 ids."""
    n = PAGE + 3
    data = VectorSet(np.random.default_rng(3).standard_normal((n, 4)).astype(np.float32))
    params = BoiParams(
        num_tables=2, hash_bits=4, initial_probe_count=15, probe_radius=4,
        schedule="fixed", shortlist_size=50, seed=1,
    )
    return build_index(data, params), data


@pytest.mark.parametrize("bad", [3, PAGE - 1], ids=["id=size", "id=2**16-1"])
def test_a_page_1_id_past_its_page_is_refused_by_load_index(tmp_path, two_pages, bad):
    index, data = two_pages
    path = tmp_path / "index.boix"
    save_index(index, path)
    raw = bytearray(path.read_bytes())
    ids = table_fields(raw)[1]["pages"][1]["ids"]
    raw[ids + 2 : ids + 4] = np.array([bad], "<u2").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="record id out of range in table 1, page 1") as err:
        load_index(path)
    assert err.value.offset == ids


@pytest.mark.parametrize("bad", [3, PAGE - 1], ids=["id=size", "id=2**16-1"])
def test_a_page_1_id_past_its_page_is_refused_by_the_kernel(two_pages, bad):
    # the constructor checks row 0 alone; a stored id at or past page 1's
    # 3 ids would vote past the n votes, and the kernel refuses it instead,
    # writing only below the page's end (the sanitizer job runs this under
    # ASan)
    index, data = two_pages
    tables = index.tables
    members = tables.members.copy()
    members[1, PAGE + 1] = bad
    corrupt = ProjectionTable(
        tables.projections, tables.bitmap, tables.offsets, members, tables.order
    )
    broken = BoiIndex(index.params, corrupt, data)
    q = data.vectors[PAGE + 1]
    before = query(index, q, 5)
    with pytest.raises(ValueError, match="corrupt hash table"):
        query(broken, q, 5)
    with pytest.raises(ValueError, match="corrupt hash table"):
        accumulate(broken, q)
    assert query(index, q, 5).ids.tobytes() == before.ids.tobytes()
