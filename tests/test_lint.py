"""Source checks that need no linter: every library module reads what it imports."""

import ast
from pathlib import Path

import pytest

import trace_turan

PACKAGE = Path(trace_turan.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module binds by import and never reads, sorted.

    ``import a.b`` binds ``a``; ``__future__`` imports bind nothing.  A name
    counts as read when it appears as a loaded name anywhere in the module,
    annotations included.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


def test_unused_import_finder_sees_leftovers():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = 0\n"
        "def f(p: os.PathLike) -> str:\n"
        "    return str(p)\n"
    )
    assert unused_imports(source) == ["field", "regex"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
