"""Source checks that need no linter: every library module reads what it
imports, every private module-level name is read somewhere in the package,
no module-level name is defined in two library modules, every package
export is read by the package or the bench, or is public, no library module
but ``hypergraph.py`` reads the private indexes of ``Hypergraph3``, every
command-line flag is read by its subcommand's handler, and every size cap
is named in the README."""

import argparse
import ast
import inspect
import textwrap
import types
from pathlib import Path

import pytest

import trace_turan
from trace_turan import cli

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


def top_level_definitions(source: str) -> set[str]:
    """The names a module binds at top level by def, class or assignment."""
    bound = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return bound


def private_definitions(source: str) -> list[str]:
    """The ``_name``s a module binds at top level by def, class or assignment."""
    names = top_level_definitions(source)
    return sorted(n for n in names if n.startswith("_") and not n.startswith("__"))


def read_names(source: str) -> set[str]:
    """Every name a module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


PACKAGE_READS = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")))


def test_private_finder_sees_leftovers():
    source = (
        "import math\n"
        "_CAP = 6\n"
        "_UNUSED: int = 1\n"
        "def _report(x):\n"
        "    return math.sqrt(x) + _CAP\n"
        "class _Row:\n"
        "    pass\n"
    )
    assert private_definitions(source) == ["_CAP", "_Row", "_UNUSED", "_report"]
    assert [n for n in private_definitions(source) if n not in read_names(source)] == [
        "_Row",
        "_UNUSED",
        "_report",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_module_private_names_are_read(path):
    defined = private_definitions(path.read_text(encoding="utf-8"))
    assert [name for name in defined if name not in PACKAGE_READS] == []


def defined_twice(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each name defined at top level in two or more of the modules, with
    the modules that define it; imports do not count."""
    where: dict[str, list[str]] = {}
    for module, source in sorted(sources.items()):
        for name in top_level_definitions(source):
            where.setdefault(name, []).append(module)
    return {name: mods for name, mods in sorted(where.items()) if len(mods) > 1}


def test_defined_twice_finder_sees_leftovers():
    sources = {
        "a": "from b import Pair\nTriple = tuple\nclass Graph:\n    pass\ndef _f():\n    pass\n",
        "b": "Pair = tuple\nTriple = tuple\n_f = None\n",
        "c": "from a import Graph\nclass Graph(Graph):\n    pass\n",
    }
    assert defined_twice(sources) == {"Graph": ["a", "c"], "Triple": ["a", "b"], "_f": ["a", "b"]}


def test_each_library_name_is_defined_once():
    assert defined_twice({p.name: p.read_text(encoding="utf-8") for p in MODULES}) == {}


# the private attributes of Hypergraph3: the layout of its indexes, owned by
# hypergraph.py; other modules read the link index through link_index
HYPERGRAPH_PRIVATES = {"_link", "_edges"}


def private_index_reads(source: str) -> list[tuple[int, str]]:
    """(line, attribute) of each read of a ``Hypergraph3`` private attribute,
    on any object, in line order."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in HYPERGRAPH_PRIVATES
    )


def test_private_index_finder_sees_leftovers():
    source = (
        "def f(h, g):\n"
        "    link = h.link_index()\n"
        "    n = len(h._edges)\n"
        "    return link, g._link.get(0), h._adj, getattr(h, 'edges')\n"
        "def _link(h):\n"
        "    return h.link_index()\n"
    )
    assert private_index_reads(source) == [(3, "_edges"), (4, "_link")]


NOT_HYPERGRAPH = [p for p in MODULES if p.name != "hypergraph.py"]


@pytest.mark.parametrize("path", NOT_HYPERGRAPH, ids=lambda p: p.name)
def test_only_hypergraph_reads_the_private_indexes(path):
    assert private_index_reads(path.read_text(encoding="utf-8")) == []


# exports that only users call: no library module or bench file reads them
PUBLIC_EXPORTS = {"export_cnf", "ratio_table"}
BENCH = Path(__file__).resolve().parent.parent / "bench"
LIBRARY_AND_BENCH_READS = set().union(
    *(read_names(p.read_text(encoding="utf-8")) for p in [*MODULES, *BENCH.glob("*.py")])
)


def test_every_export_is_read_or_public():
    exports = {
        name
        for name in trace_turan.__all__
        if not isinstance(getattr(trace_turan, name), types.ModuleType)
    }
    assert PUBLIC_EXPORTS <= exports
    assert sorted(exports - LIBRARY_AND_BENCH_READS - PUBLIC_EXPORTS) == []


def _subparsers(parser: argparse.ArgumentParser) -> list[argparse._SubParsersAction]:
    return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]


def unread_flags(parser: argparse.ArgumentParser, prefix: str = "") -> list[str]:
    """The ``subcommand dest`` pairs whose handler (the ``handler`` default of
    the subcommand's parser) never reads ``args.<dest>``.

    A subcommand with its own subcommands is walked the same way, so each
    leaf names its path (``construct polarity q``).
    """
    (sub,) = _subparsers(parser)
    unread = []
    for name, p in sub.choices.items():
        if _subparsers(p):
            unread += unread_flags(p, f"{prefix}{name} ")
            continue
        tree = ast.parse(textwrap.dedent(inspect.getsource(p.get_default("handler"))))
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        dests = [a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)]
        unread += [f"{prefix}{name} {dest}" for dest in dests if dest not in read]
    return sorted(unread)


def _reads_n(args):
    return args.n


def test_unread_flag_finder_sees_leftovers():
    parser = argparse.ArgumentParser()
    p = parser.add_subparsers(dest="subcommand").add_parser("run")
    p.set_defaults(handler=_reads_n)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    assert unread_flags(parser) == ["run seed"]


def test_unread_flag_finder_walks_nested_subcommands():
    parser = argparse.ArgumentParser()
    kinds = parser.add_subparsers(dest="subcommand").add_parser("make").add_subparsers(dest="kind")
    p = kinds.add_parser("small")
    p.set_defaults(handler=_reads_n)
    p.add_argument("--n", type=int)
    p = kinds.add_parser("large")
    p.set_defaults(handler=_reads_n)
    p.add_argument("--n", type=int)
    p.add_argument("--lift", action="store_true")
    assert unread_flags(parser) == ["make large lift"]


def test_every_flag_is_read_by_its_handler():
    assert unread_flags(cli.build_parser()) == []


def guarding_caps(source: str) -> list[str]:
    """The module-level ``*_CAP`` names read in the test of an ``if`` whose
    body raises ``CapExceeded``, sorted."""
    caps = {name for name in top_level_definitions(source) if name.endswith("_CAP")}
    guards = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and any(
            isinstance(stmt, ast.Raise)
            and isinstance(stmt.exc, ast.Call)
            and isinstance(stmt.exc.func, ast.Name)
            and stmt.exc.func.id == "CapExceeded"
            for stmt in node.body
        ):
            read = {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)}
            guards.update(read & caps)
    return sorted(guards)


def unnamed_caps(caps: list[str], readme: str) -> list[str]:
    """The caps that the README never names in backticks."""
    return [cap for cap in caps if f"`{cap}`" not in readme]


def test_cap_finder_sees_leftovers():
    source = (
        "from .hypergraph import CapExceeded\n"
        "N_CAP = 3\n"
        "T_CAP = 4\n"
        "WITNESS_CAP = 100\n"
        "def f(n, t, m):\n"
        "    if n > N_CAP or t > T_CAP:\n"
        "        raise CapExceeded('too large')\n"
        "    if m > WITNESS_CAP:\n"
        "        raise ValueError('not a size cap')\n"
        "    return m < WITNESS_CAP\n"
    )
    assert guarding_caps(source) == ["N_CAP", "T_CAP"]
    assert unnamed_caps(guarding_caps(source), "| n <= 3 (`N_CAP`) |\nT_CAP\n") == ["T_CAP"]


def test_every_size_cap_is_named_in_the_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    caps = [cap for p in MODULES for cap in guarding_caps(p.read_text(encoding="utf-8"))]
    assert "POINTS_CAP" in caps and "CNF_CAP" in caps
    assert unnamed_caps(caps, readme) == []
