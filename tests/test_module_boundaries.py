"""No module of the package imports a private name from a sibling.

A ``_``-prefixed name is its module's own. A sibling that needs one
belongs in that module, so each kind of search stays in one place.
"""

import ast
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
