"""Statements of src/drphase that a pytest run never executes.

Runs pytest in this process (with `-p no:cacheprovider`) under
`sys.settrace` and `threading.settrace`, tracing only frames whose code
lives in src/drphase, then prints every AST statement of those files that
never ran, as `path:line: source`, and a count.  Docstrings, `def`,
`class`, imports, `global`/`nonlocal`, bare annotations and `try` headers
are left out: they run no line of their own, or run at import.  Needs
nothing beyond pytest (coverage.py is not required).  Code run in a
subprocess (the CLI tests that spawn `python -m drphase`) is not seen.

    python benchmarks/line_trace.py [PYTEST_ARGS...]   # default: tests

The whole suite takes about a minute on a 2-core Xeon host.  Exits
with pytest's status.
"""

import ast
import os
import sys
import threading

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "drphase") + os.sep
# statements that run no line of their own
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Try)

executed: dict[str, set[int]] = {}


def _trace_lines(frame, event, arg):
    if event == "line":
        executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    name = frame.f_code.co_filename
    # at interpreter exit a frame's code can have no file name
    if name is None or not name.startswith(SRC):
        return None
    executed.setdefault(name, set())
    return _trace_lines


def _statements(tree: ast.AST):
    """(first, last) header lines of each statement that runs a line."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue  # a bare annotation
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, max(last, node.lineno)


def never_run() -> list[tuple[str, int, str]]:
    """(path, line, source) of every statement of src/drphase that no
    traced frame ran."""
    out = []
    for root, _, files in os.walk(SRC):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(root, fname)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            lines = source.splitlines()
            ran = executed.get(path, set())
            for first, last in sorted(_statements(ast.parse(source))):
                if not ran.intersection(range(first, last + 1)):
                    out.append((os.path.relpath(path, REPO), first,
                                lines[first - 1].strip()))
    return out


def main(argv: list[str]) -> int:
    import pytest

    src = os.path.join(REPO, "src")
    sys.path.insert(0, src)
    # for the tests that start `python -m drphase` (untraced)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(argv or [os.path.join(REPO, "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = never_run()
    for path, line, text in missed:
        print(f"{path}:{line}: {text}")
    print(f"{len(missed)} statements of src/drphase never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
