"""The package computes in exact arithmetic only: no float can enter.

Every answer liecheck gives is an integer or a `Fraction`, with no
tolerance anywhere.  This reads the source of every module and refuses what
would bring a float in: true division, a float or complex literal, and any
use of `float`, `round` or a `math` name other than `lcm` and `gcd`, which
map ints to ints and raise `TypeError` on a float.  It covers code that no
test reaches.  The tests' own root data (`_rootdata.py`), the independent
side of the catalog's dims, is held to the same rule.
"""

import ast
from pathlib import Path

import liecheck

PACKAGE = Path(liecheck.__file__).resolve().parent
ROOTDATA = Path(__file__).resolve().parent / "_rootdata.py"

_FLOAT_NAMES = frozenset(("float", "round"))
_MATH_NAMES = frozenset(("gcd", "lcm"))


def _inexact(tree):
    """(line, what) for every construct that could produce a float."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, f"{type(node.value).__name__} literal"
        elif isinstance(node, ast.Name) and node.id in _FLOAT_NAMES:
            yield node.lineno, f"use of {node.id}"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
            if node.attr not in _MATH_NAMES:
                yield node.lineno, f"use of math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in _MATH_NAMES:
                    yield node.lineno, f"use of math.{alias.name}"


def test_no_inexact_arithmetic_in_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    found = [
        f"{path.relative_to(path.parent.parent)}:{line}: {what}"
        for path in [*modules, ROOTDATA]
        for line, what in _inexact(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []


def test_the_scan_sees_every_form():
    tree = ast.parse(
        "a / b\n"
        "a /= b\n"
        "x = 0.5\n"
        "x = 2j\n"
        "float(a)\n"
        "round(a)\n"
        "math.sqrt(a)\n"
        "from math import gcd, lcm, floor\n"
        "a // b; a % b; math.lcm(a, b); math.gcd(a, b); Fraction(a, b)\n"
    )
    assert sorted(_inexact(tree)) == [
        (1, "true division"),
        (2, "true division"),
        (3, "float literal"),
        (4, "complex literal"),
        (5, "use of float"),
        (6, "use of round"),
        (7, "use of math.sqrt"),
        (8, "use of math.floor"),
    ]
