"""Every module-level import of the package is read by its module.

``__init__.py`` is skipped: its imports are the public API."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repsieve"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``(line, name)`` of each module-level import ``source`` never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("from collections.abc import Mapping, Sequence\nx: Sequence = ()\n", [(1, "Mapping")]),
        ("import os.path\nimport json as j\n", [(1, "os"), (2, "j")]),
        ("from __future__ import annotations\n", []),
        ("from json import dumps\ndef f(x: dumps): pass\n", []),
        ("def f():\n    import json\n", []),
    ],
)
def test_unused_imports_finds_what_is_never_read(source, unused):
    assert unused_imports(source) == unused
