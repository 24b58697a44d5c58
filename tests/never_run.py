"""List the library statements that the test suite never runs.

    python tests/never_run.py [pytest arguments]

Runs pytest on ``tests/`` in this process under ``sys.settrace`` (standard
library only, no coverage package) and prints, for each module of
``src/trace_turan``, every statement that never executed: its line number
and first source line.  A statement counts as run when any of its lines
executed; for a compound statement (if, for, def, ...) only its header
lines count, not its body.  Lines with no bytecode, such as docstrings,
are not statements here.  Code the suite runs in a child process is not
seen.  The exit status is pytest's.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trace_turan"


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines that carry bytecode in code and the code objects it nests."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, lines that count as running it) of each statement of a
    module that carries bytecode, in line order."""
    source = path.read_text(encoding="utf-8")
    executable = _code_lines(compile(source, str(path), "exec"))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        span = range(first, last + 1)
        if executable.intersection(span):
            found.append((first, span))
    return sorted(found, key=lambda stmt: stmt[0])


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status, and the lines executed in each package module."""
    prefix = str(PACKAGE) + os.sep
    ours: dict[str, str | None] = {}  # code filename -> package path, or None
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            real = os.path.realpath(name)
            ours[name] = real if real.startswith(prefix) else None
            if ours[name] is not None:
                hits.setdefault(real, set())
        return None if ours[name] is None else local

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    return int(status), hits


def main(argv: list[str]) -> int:
    start = time.monotonic()
    status, hits = run_traced(argv)
    print(f"\nnever-run statements under src/trace_turan ({time.monotonic() - start:.0f} s traced)")
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path.resolve()), set())
        missed = [first for first, span in statements(path) if not ran.intersection(span)]
        if not missed:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        print(f"{path.name}: {len(missed)}")
        for first in missed:
            print(f"  {first}: {lines[first - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
