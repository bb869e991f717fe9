"""Print each statement of src/liecheck that no Tier-1 test executes.

    python3 tools/untested_statements.py

Run from the root of a checkout (about a minute).  It runs the test
suite in this process under a `sys.settrace` and `threading.settrace`
line tracer that traces only frames running the modules' own code, and
prints ``path:line  source`` for every statement line that is executable
(a line of some code object compiled from the file) and never ran.  A
statement is one line: its first, as the AST gives it.  A frame's code is
the module's own when it equals a code object compiled from the file: a
test that compiles a piece of the source under the file's name (as the
input-contract test evaluates each raise's exception expression) runs
code that only shares the name, and marks nothing run.  The decision is
cached per code object, so that a traced call costs a dict lookup by id,
not a hash of the whole code object.

The two `reference_cycles` tests are deselected, since a tracer holds
frames and so makes cycles of its own.  Tests that run the program in a
subprocess cover nothing here, so lines only they reach are printed too.
Uses only the standard library and pytest.  Exits with pytest's status.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liecheck"
DESELECTED = (
    "tests/test_verifier.py::test_sweep_makes_no_reference_cycles",
    "tests/test_centralizer.py::test_enumeration_leaves_no_reference_cycles",
)


def compiled_codes(path):
    """Every code object compiled from the file, nested ones included."""
    codes, todo = [], [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        codes.append(code)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return codes


def statement_lines(path):
    """First lines of the file's statements that its compiled code can execute."""
    source = path.read_text(encoding="utf-8")
    statements = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    executable = {line for code in compiled_codes(path) for _, _, line in code.co_lines() if line is not None}
    return statements & executable


def main():
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    executed = {name: set() for name in files}
    own = {code for path in files.values() for code in compiled_codes(path)}
    # id(code) -> (code, whether it is a module's own); holding the code
    # keeps its id from being reused by another
    decided = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in executed:
            return None
        hit = decided.get(id(code))
        if hit is None:
            hit = decided[id(code)] = (code, code in own)
        return trace_lines if hit[1] else None

    args = ["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), str(ROOT / "tests")]
    args += [arg for test in DESELECTED for arg in ("--deselect", test)]
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    untested = 0
    for name, path in files.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statement_lines(path) - executed[name]):
            print("%s:%d  %s" % (path.relative_to(ROOT), line, lines[line - 1].strip()))
            untested += 1
    print("%d untested statements" % untested)
    return status


if __name__ == "__main__":
    sys.exit(main())
