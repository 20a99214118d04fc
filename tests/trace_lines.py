"""List the statements of src/tpcalc/*.py that a pytest run never executes.

A line tracer on the standard library alone: it runs pytest in this process
under ``sys.settrace``, records the lines executed in the package's own
files and reports each statement none of whose header lines ran (a compound
statement's header runs up to its first inner statement).  A line with no
bytecode, such as a docstring, never counts as a statement.  Code run in a
subprocess is not seen.  From the repository root:

    PYTHONPATH=src python tests/trace_lines.py --report FILE [pytest arguments]

The report is Markdown, appended to FILE ("-" for stdout, the default).  The
exit code is pytest's.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tpcalc")


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines that carry bytecode in code and the code objects it holds."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _headers(tree: ast.Module):
    """(first line, last line) of each statement's header."""
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            inner = [block[0].lineno for field in ("body", "orelse", "finalbody", "handlers")
                     if isinstance(block := getattr(node, field, None), list) and block]
            inner += [case.pattern.lineno for case in getattr(node, "cases", ())]
            yield node.lineno, (min(inner) - 1 if inner else node.end_lineno)


def never_run(path: str, executed: set[int]) -> list[tuple[int, str]]:
    """(line, source line) of each statement of path that has bytecode and never ran."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    code_lines = _code_lines(compile(source, path, "exec"))
    text = source.splitlines()
    out = []
    for first, last in _headers(ast.parse(source, path)):
        header = set(range(first, last + 1))
        if header & code_lines and not header & executed:
            out.append((first, text[first - 1].strip()))
    return sorted(set(out))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", default="-", help="Markdown file to append to")
    args, pytest_args = parser.parse_known_args(argv)
    executed: dict[str, set[int]] = {}
    local_tracers: dict[str, object] = {}

    def local_tracer(lines: set[int]):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in local_tracers:
            path = os.path.realpath(filename)
            ours = os.path.dirname(path) == PACKAGE and path.endswith(".py")
            local_tracers[filename] = (local_tracer(executed.setdefault(path, set()))
                                       if ours else None)
        return local_tracers[filename]

    import pytest  # before the tracer starts, so pytest's own import is not traced

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    lines = ["### Statements of src/tpcalc/*.py that the tests never run "
             f"(pytest exit {int(code)})", "", "```"]
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        path = os.path.join(PACKAGE, name)
        if not name.endswith(".py"):
            continue
        missed = never_run(path, executed.get(path, set()))
        total += len(missed)
        lines += [f"src/tpcalc/{name}:{line}: {text}" for line, text in missed]
    lines += ["```", "", f"{total} statements never run.", ""]
    report = "\n".join(lines)
    if args.report == "-":
        print(report)
    else:
        with open(args.report, "a", encoding="utf-8") as fh:
            fh.write(report + "\n")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main())
