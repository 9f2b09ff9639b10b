"""Every name a module imports is read somewhere in it: an AST scan of the package and the tests.

A name is used when the module loads it (`np.array` loads `np`).  A name
listed in `__all__`, or imported on a line marked `# noqa: F401` (the
statement's first line or the name's own), counts as used.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "dnr").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never loads, in order of first import."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if any("noqa: F401" in lines[line - 1] for line in (node.lineno, alias.lineno)):
                continue
            imported.setdefault(alias.asname or alias.name.split(".")[0], alias.lineno)
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    unused = [name for name in imported if name not in loaded | exported]
    return sorted(unused, key=imported.__getitem__)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_a_planted_import():
    source = (
        "import itertools\n"
        "import os.path\n"
        "from math import pi, tau  # noqa: F401\n"
        "from json import (  # noqa: F401\n"
        "    dumps,\n"
        ")\n"
        "from json import loads as read, load\n"
        "__all__ = ['load']\n"
        "print(os.path.sep)\n"
    )
    assert unused_imports(source) == ["itertools", "read"]
