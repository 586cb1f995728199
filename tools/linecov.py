"""Statements of ``src/loghodgelab`` that tier-1 never runs, against a baseline.

    python3 tools/linecov.py

Runs tier-1 (``pytest -q`` from the checkout's root) in this process under
``sys.settrace``, tracing only the frames of files in ``src/loghodgelab``,
and lists each statement that no traced line of it ran.
A statement is an ``ast`` statement other than a docstring; its own lines
are its whole span, or for a compound statement its header up to its first
body statement, and it counts only if the compiled module puts bytecode on
one of them.  Requests that tests run in a subprocess are not traced.

``tools/linecov_baseline.json`` lists the statements allowed to stay unrun,
one reason each, keyed by module, enclosing function and the statement's
first line, so that edits elsewhere in a file do not move an entry.  Exit
status: 1 if a statement outside the baseline never ran, or if the tests
failed; 0 otherwise.  Baseline entries that now run are named, to be
dropped.  Not part of tier-1: the tracer makes the suite about 3 times
slower.  Stdlib and pytest only.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loghodgelab"
BASELINE = Path(__file__).resolve().parent / "linecov_baseline.json"


def _executable_lines(source: str, path: Path) -> set[int]:
    """The lines that carry bytecode in the compiled module."""
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str) and parent.body[0] is node)


def statements(path: Path) -> list[tuple[str, str, set[int]]]:
    """(enclosing function, first line, own executable lines) per statement."""
    source = path.read_text()
    text, executable = source.splitlines(), _executable_lines(source, path)
    found = []

    def visit(parent: ast.AST, scope: str) -> None:
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for node in getattr(parent, field, ()):
                if not isinstance(node, ast.stmt):
                    visit(node, scope)  # an except handler or a match case
                    continue
                if _is_docstring(node, parent):
                    continue
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", ())])
                body = getattr(node, "body", None)
                last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
                own = executable & set(range(first, last + 1))
                if own:
                    found.append((scope, text[node.lineno - 1].strip(), own))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(node, node.name if scope == "<module>" else f"{scope}.{node.name}")
                else:
                    visit(node, scope)

    visit(ast.parse(source), "<module>")
    return found


def traced_run() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each package file."""
    import pytest
    prefix, ran, traced = str(PACKAGE) + os.sep, {}, {}

    def local(frame, event, arg):
        if event == "line":
            ran[traced[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in traced:
            path = os.path.abspath(filename)
            traced[filename] = path if path.startswith(prefix) else None
        if traced[filename] is None:
            return None
        ran.setdefault(traced[filename], set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    code, ran = traced_run()
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        unrun += [(path.name, scope, first) for scope, first, own in statements(path)
                  if not own & lines]
    allowed = Counter((e["module"], e["function"], e["statement"])
                      for e in json.loads(BASELINE.read_text()))
    outside = Counter(unrun) - allowed
    for module, scope, first in sorted(outside.elements()):
        print(f"unrun, not in the baseline: {module} {scope}: {first}")
    for module, scope, first in sorted((allowed - Counter(unrun)).elements()):
        print(f"in the baseline, now run: {module} {scope}: {first}")
    print(f"{len(unrun)} statements unrun, {sum(outside.values())} outside the baseline; "
          f"pytest exit code {code}")
    return 1 if outside or code else 0


if __name__ == "__main__":
    sys.exit(main())
