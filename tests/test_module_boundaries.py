"""No module of the package imports a private name from a sibling, and
each compiled query stage has one Python caller.

A ``_``-prefixed name is its module's own. A sibling that needs one
belongs in that module, so each kind of search stays in one place. In
``vote.py`` every stage of a query runs through one call of
``boi_query``, in ``QueryScratch._stages``, and the sign filter of a
build's dot products through ``SignFilter``; no second, checked way into
a kernel is kept for the tests.
"""

import ast
from collections import Counter
from pathlib import Path

import boi

PACKAGE = Path(boi.__file__).parent


def private_sibling_imports(source: str) -> list[str]:
    """``module.name`` of every ``_``-prefixed name ``source`` imports from
    the package, by a relative import or by an absolute ``boi`` one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "boi":
            continue
        found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_the_check_sees_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from .core import dense_vector\n"
        "from .index import _accumulate, shortlist\n"
        "from boi.vote import _address\n"
    )
    assert private_sibling_imports(source) == ["index._accumulate", "boi.vote._address"]


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = {
        path.name: names
        for path in modules
        if (names := private_sibling_imports(path.read_text()))
    }
    assert found == {}


def library_calls(source: str) -> Counter:
    """The calls of a ``_library.boi_*`` entry point in ``source``, by
    entry point."""
    return Counter(
        node.func.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "_library"
        and node.func.attr.startswith("boi_")
    )


def test_the_count_sees_only_calls_of_the_library():
    source = (
        "_library.boi_query(block, 5, scanned)\n"
        "entry = _library.boi_query\n"
        "library.boi_query.restype = int\n"
        "status = check(_library.boi_probe_rows(*args))\n"
    )
    assert library_calls(source) == {"boi_query": 1, "boi_probe_rows": 1}


def test_each_compiled_stage_has_one_caller_in_vote():
    calls = library_calls((PACKAGE / "vote.py").read_text())
    assert calls == {
        # the query's stages, all of them or one at a time: QueryScratch._stages
        "boi_query": 1,
        # the sign filter of a build's dot products: SignFilter
        "boi_hash_codes": 1,
        # the exact distances of rows from a query: row_distances
        "boi_distances": 1,
        # the nearest rows of a whole set, for the oracle: nearest_rows
        "boi_nearest": 1,
        # the build's sort and the checks of a directory and a snapshot
        "boi_bucket_sort": 1,
        "boi_check_directory": 1,
        "boi_table_buckets": 1,
        "boi_check_table": 1,
    }
