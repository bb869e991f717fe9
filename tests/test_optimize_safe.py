"""Every invariant of the package survives ``python -O``.

``-O`` strips ``assert`` statements and makes ``__debug__`` false, so a
check written either way would silently vanish.  This test reads the
source of every module, so it covers code that no ``-O`` run reaches.

It also refuses ``raise AssertionError``: that survives ``-O``, but it
dresses an invariant as an ``assert``.  The package raises the named
``OracleInvariantError`` instead, so a caller tells a bug from bad input
by type.
"""

import ast
from pathlib import Path

import liecheck

PACKAGE = Path(liecheck.__file__).resolve().parent


def _optimize_sensitive(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node.lineno, "read of __debug__"
        elif isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_no_assert_or_debug_in_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    found = [
        f"{path.relative_to(PACKAGE)}:{line}: {what}"
        for path in modules
        for line, what in _optimize_sensitive(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_scan_sees_both_forms():
    tree = ast.parse("assert x\nif __debug__:\n    pass\n")
    assert [what for _, what in _optimize_sensitive(tree)] == [
        "assert statement",
        "read of __debug__",
    ]


def test_the_scan_sees_raise_assertion_error():
    tree = ast.parse("raise AssertionError('x')\nraise AssertionError\nraise\nraise KeyError\n")
    assert list(_optimize_sensitive(tree)) == [
        (1, "raise AssertionError"),
        (2, "raise AssertionError"),
    ]
