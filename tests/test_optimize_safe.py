"""Every invariant of the package survives ``python -O``.

``-O`` strips ``assert`` statements and makes ``__debug__`` false, so a
check written either way would silently vanish.  This test reads the
source of every module, so it covers code that no ``-O`` run reaches.
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
