"""The input contract: every input gets an answer or an `InputError`,
never another exception, and every refusal's message formats.

Three tables of hostile inputs.  The first runs through the centralizer
entry points, `bound`, `enumerate_signatures`, `oracle_max`,
`signature_dim`, `signature_compact_dim` and `from_signature`; the second
through the catalog, verification and matrix entry points; the third
through `cli.main`; beside them, the probes that once escaped as another
exception or were answered.  The sizes straddle `algebras.SIZE_CAP_DIGITS`: a
2,200-digit size is past the cap, and a 5,001-digit one is past the 4,300
digits Python converts from int to str, so a refusal that formats it would
itself crash.  Last, a static check that every `raise` in the package
raises an `InputError` or an `OracleInvariantError`.
"""

import ast
import importlib
from pathlib import Path

import pytest

import liecheck
from liecheck import algebras, cli
from liecheck.algebras import (
    Family,
    InputError,
    OutOfDomain,
    ReductiveAlgebra,
    SimpleAlgebra,
    algebra,
    dims,
    iter_noncompact_simple,
    parse_algebra,
    require_max_param,
    simple,
)
from liecheck.centralizers import (
    OracleInvariantError,
    SigFamily,
    Signature,
    bound,
    enumerate_signatures,
    oracle_max,
    signature_compact_dim,
    signature_dim,
)
from liecheck.involutions import isotropy_entries, triality_classes
from liecheck.matrixoracle import element, from_signature, model, named_element
from liecheck.verify import (
    check_involutions,
    check_semisimple,
    iter_algebra_cases,
    product_checks,
    rank1_shortcut,
    sweep,
    vcd,
    verify_case,
)

WIDE = 10**2200
HUGE = 10**5000
SO, SU_PQ = SigFamily.SO_N, SigFamily.SU_PQ

# (label, family, params, blocks): the first three entry points take
# (family, params), the others the `Signature` of all three, built in the call
TABLE = [
    ("2200-digit size", SO, (WIDE + 1,), ((1, WIDE, 0), (-1, 1, 0))),
    ("5001-digit size", SO, (HUGE + 1,), ((1, HUGE, 0), (-1, 1, 0))),
    ("5001-digit q", SU_PQ, (1, HUGE), ((1, 1, HUGE - 1), (-1, 0, 1))),
    ("negative 5001-digit p", SU_PQ, (-HUGE, 2), ((1, -HUGE, 1), (-1, 0, 1))),
    ("5001-digit tag", SU_PQ, (1, 2), ((HUGE, 1, 1), (-1, 0, 1))),
    ("5001-digit size beside a float", SU_PQ, (HUGE, 2.0), ((1, HUGE, 1), (-1, 0, 1.0))),
    ("bool size", SO, (True,), ((1, True, 0), (-1, 0, 0))),
    ("bool multiplicity", SU_PQ, (1, 2), ((1, 1, True), (-1, 0, 1))),
    ("float size", SO, (3.0,), ((1, 2, 0), (-1, 1, 0))),
    ("float multiplicity", SO, (3,), ((1, 2.0, 0), (-1, 1, 0))),
    ("None params", SO, None, ((1, 2, 0), (-1, 1, 0))),
    ("int params", SO, 3, ((1, 2, 0), (-1, 1, 0))),
    ("str params", SO, "3", ((1, 2, 0), (-1, 1, 0))),
    ("no params", SO, (), ((1, 2, 0), (-1, 1, 0))),
    ("three params", SU_PQ, (1, 2, 3), ((1, 1, 1), (-1, 0, 1))),
    ("None blocks", SO, (3,), None),
    ("int blocks", SO, (3,), HUGE),
    ("flat block", SO, (3,), (1, 2, 0)),
    ("short block", SO, (3,), ((1, 2), (-1, 1, 0))),
    ("str family", "so_n", (3,), ((1, 2, 0), (-1, 1, 0))),
    ("None family", None, (3,), ((1, 2, 0), (-1, 1, 0))),
    ("negative size", SO, (-3,), ((1, -2, 0), (-1, -1, 0))),
    ("negative p", SU_PQ, (-1, 2), ((1, -1, 1), (-1, 0, 1))),
    ("negative multiplicity", SO, (3,), ((1, -1, 0), (-1, 4, 0))),
    ("list blocks", SO, [3], [[1, 2, 0], [-1, 1, 0]]),
    ("list blocks (p, q)", SU_PQ, [1, 2], [[1, 1, 1], [-1, 0, 1]]),
]

ENTRY_POINTS = {
    "bound": lambda f, ps, _: bound(f, ps),
    "enumerate_signatures": lambda f, ps, _: list(enumerate_signatures(f, ps)),
    "oracle_max": lambda f, ps, _: oracle_max(f, ps),
    "signature_dim": lambda *row: signature_dim(Signature(*row)),
    "signature_compact_dim": lambda *row: signature_compact_dim(Signature(*row)),
    "from_signature": lambda *row: from_signature(Signature(*row)),
}


@pytest.mark.parametrize(
    "family, params, blocks", [row[1:] for row in TABLE], ids=[row[0] for row in TABLE]
)
def test_every_input_is_answered_or_refused(family, params, blocks):
    broken = []
    for name, call in ENTRY_POINTS.items():
        try:
            call(family, params, blocks)
        except InputError as exc:
            str(exc)  # the refusal's message was formatted
        except Exception as exc:  # noqa: BLE001 - any other type breaks the contract
            broken.append(f"{name}: {type(exc).__name__}")
    assert not broken


SL3 = simple(Family.SL_R, 3)
SO3 = model(Family.SO_CPT, 3)
EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

# (label, value): each value goes into every argument slot of CATALOG
VALUES = [
    ("str", "sl(3,R)"),
    ("None", None),
    ("bool", True),
    ("float", 3.0),
    ("list params", [3]),
    ("list params (p, q)", [1, 2]),
    ("sum of simple algebras", parse_algebra("sl(2,R)+sl(2,R)")),
    ("reductive with an abelian part", parse_algebra("sl(3,R)+R")),
    ("one-factor ReductiveAlgebra", algebra(Family.SL_R, 3)),
    ("ReductiveAlgebra of None", ReductiveAlgebra(None)),
    ("ReductiveAlgebra of str factors", ReductiveAlgebra(("x", "y"))),
    ("ReductiveAlgebra with a str abelian dimension", ReductiveAlgebra((SL3,), "1")),
    ("ReductiveAlgebra with a 5001-digit abelian dimension", ReductiveAlgebra((SL3,), HUGE)),
    ("unknown family", SigFamily.SO_N),
    ("unknown family name", "sl_x"),
    ("2200-digit int", WIDE),
    ("5001-digit int", HUGE),
    ("negative 5001-digit int", -HUGE),
]

# entry point -> one call per argument slot, each taking the hostile value
CATALOG = {
    "parse_algebra": [parse_algebra],
    "algebra": [lambda v: algebra(v, 3), lambda v: algebra(Family.SL_R, v), lambda v: algebra(Family.SU, 1, v)],
    "SimpleAlgebra": [
        lambda v: SimpleAlgebra(v, (3,)),
        lambda v: SimpleAlgebra(Family.SL_R, v),
        lambda v: SimpleAlgebra(Family.SL_R, (v,)),
        lambda v: SimpleAlgebra(Family.SL_R, [v]),
    ],
    "simple": [lambda v: simple(v, 3), lambda v: simple(Family.SL_R, v)],
    "dims": [dims],
    "vcd": [
        lambda v: vcd(v, 1),
        lambda v: vcd([v], 1),
        lambda v: vcd([SL3], v),
        lambda v: vcd([SL3], 1, irreducible=v),
    ],
    "check_semisimple": [check_semisimple, lambda v: check_semisimple([v, v])],
    "isotropy_entries": [isotropy_entries],
    "triality_classes": [triality_classes],
    "check_involutions": [check_involutions],
    "verify_case": [verify_case],
    "model": [lambda v: model(v, 3), lambda v: model(Family.SO_CPT, v), lambda v: model(Family.SO, 1, v)],
    "element": [
        lambda v: element(v, EYE3),
        lambda v: element(SO3, v),
        lambda v: element(SO3, [v, [0, 1, 0], [0, 0, 1]]),
        lambda v: element(SO3, [[v, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ],
    "named_element": [lambda v: named_element(v, "identity"), lambda v: named_element(SO3, v)],
    "iter_algebra_cases": [lambda v: iter_algebra_cases(v, 8), lambda v: iter_algebra_cases("all", v)],
    "product_checks": [lambda v: product_checks(v, 8), lambda v: product_checks("all", v)],
    "sweep": [lambda v: sweep(v, 8), lambda v: sweep("all", v)],
    "iter_noncompact_simple": [lambda v: next(iter_noncompact_simple(v))],
    "require_max_param": [require_max_param],
    "export_payload": [cli.export_payload],
}


def _broken(calls):
    """The calls that raise something other than an InputError, or an
    InputError whose message does not format."""
    broken = []
    for name, call in calls:
        try:
            call()
        except InputError as exc:
            try:
                str(exc)
            except Exception as inner:  # noqa: BLE001
                broken.append(f"{name}: message {type(inner).__name__}")
        except Exception as exc:  # noqa: BLE001 - any other type breaks the contract
            broken.append(f"{name}: {type(exc).__name__}")
    return broken


@pytest.mark.parametrize("value", [row[1] for row in VALUES], ids=[row[0] for row in VALUES])
def test_every_catalog_input_is_answered_or_refused(value):
    calls = [
        (f"{name}[{slot}]", lambda call=call: call(value))
        for name, slots in CATALOG.items()
        for slot, call in enumerate(slots)
    ]
    assert not _broken(calls)


# inputs that once escaped as ValueError (int-to-str limit), TypeError or
# AttributeError
PROBES = {
    "SimpleAlgebra(SL_R, [5001 digits])": lambda: SimpleAlgebra(Family.SL_R, [HUGE]),
    "SimpleAlgebra(5001 digits, (3,))": lambda: SimpleAlgebra(HUGE, (3,)),
    "algebra(5001 digits, 3)": lambda: algebra(HUGE, 3),
    "vcd rank 5001 digits": lambda: vcd([SL3], HUGE),
    "vcd rank -5001 digits": lambda: vcd([SL3], -HUGE),
    "require_max_param(5001 digits)": lambda: require_max_param(HUGE),
    "iter_algebra_cases(all, 5001 digits)": lambda: iter_algebra_cases("all", HUGE),
    "isotropy_entries(str)": lambda: isotropy_entries("sl(3,R)"),
    "check_involutions(str)": lambda: check_involutions("sl(3,R)"),
    "rank1_shortcut(str)": lambda: rank1_shortcut("sl(3,R)"),
    "check_semisimple(str)": lambda: check_semisimple("sl(3,R)"),
    "vcd(str)": lambda: vcd("sl(3,R)", 1),
    "element(ambient, None)": lambda: element(SO3, None),
    "dims(str)": lambda: dims("sl(3,R)"),
    "parse_algebra(None)": lambda: parse_algebra(None),
    "model(str family)": lambda: model("so", 1, 2),
    "triality_classes(str)": lambda: triality_classes("x"),
    "dims(ReductiveAlgebra(None))": lambda: dims(ReductiveAlgebra(None)),
    "dims(ReductiveAlgebra of str factors)": lambda: dims(ReductiveAlgebra(("x", "y"))),
    "dims(ReductiveAlgebra with a str abelian dimension)": lambda: dims(ReductiveAlgebra((SL3,), "1")),
    "dims(ReductiveAlgebra with a 5001-digit compact dimension)": lambda: dims(ReductiveAlgebra((), HUGE, 0)),
    "dims(ReductiveAlgebra with a 5001-digit split dimension)": lambda: dims(ReductiveAlgebra((), 0, HUGE)),
    # would render a message of 10**9 terms
    "dims(ReductiveAlgebra with a 10**9 compact dimension)": lambda: dims(ReductiveAlgebra((), 10**9, 0)),
}


@pytest.mark.parametrize("name", PROBES)
def test_the_recorded_probes_are_refused(name):
    assert not _broken([(name, PROBES[name])])


# inputs that were once answered while another entry point refused them
ANSWERED_PROBES = {
    "product_checks(everything, 8)": lambda: product_checks("everything", 8),
}


@pytest.mark.parametrize("name", ANSWERED_PROBES)
def test_the_recorded_answers_are_refused(name):
    with pytest.raises(OutOfDomain):
        ANSWERED_PROBES[name]()


ZEROS_4200 = "1" + "0" * 4199

# argv rows for cli.main: a 4,200-digit flag value still parses as an int
CLI_ROWS = [
    ["info", "0"],
    ["involutions", "0"],
    ["involutions", "so(8,C)"],
    ["oracle", "--family", "so", "--n", ZEROS_4200],
    ["oracle", "--family", "so", "--n", ZEROS_4200, "--matrix"],
    ["oracle", "--family", "su", "--p", "0", "--q", "3", "--matrix"],
    ["vcd", "sl(2,R)", "--rkq", ZEROS_4200],
    ["verify", "--max-param", ZEROS_4200],
    ["export", "--max-param", "1"],
]


@pytest.mark.parametrize("argv", CLI_ROWS, ids=[" ".join(row)[:40] for row in CLI_ROWS])
def test_every_cli_row_exits_cleanly(capsys, argv):
    # exit 0, 1 or 2 with no traceback: one `error:` line, or argparse's
    # usage error as SystemExit(2)
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


# raises outside the contract on purpose: `_build_token`'s ValueError, which
# `_parse_token` turns into a ParseError, the AttributeErrors that
# assignment and deletion raise on a `SimpleAlgebra`, the one record class
# that is not a `NamedTuple`, and `algebra`'s re-raise of a TypeError
# behind arguments that `_check_params` accepts: those all hash, so only a
# broken cache reaches it
_ALLOWED_RAISES = {
    ("liecheck.algebras", "_build_token", ValueError),
    ("liecheck.algebras", "algebra", TypeError),
    ("liecheck.algebras", "__setattr__", AttributeError),
    ("liecheck.algebras", "__delattr__", AttributeError),
}


def _raises(tree):
    """(enclosing function name, handler types, Raise node) for every raise."""
    found = []

    def walk(node, function, handler):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name, None)
            elif isinstance(child, ast.ExceptHandler):
                walk(child, function, child.type)
            else:
                if isinstance(child, ast.Raise):
                    found.append((function, handler, child))
                walk(child, function, handler)

    walk(tree, None, None)
    return found


def test_every_raise_is_an_input_error_or_an_invariant():
    checked = 0
    for path in sorted(Path(liecheck.__file__).parent.glob("*.py")):
        name = "liecheck" if path.stem == "__init__" else f"liecheck.{path.stem}"
        namespace = vars(importlib.import_module(name))
        for function, handler, node in _raises(ast.parse(path.read_text(encoding="utf-8"))):
            # a bare raise re-raises what its handler caught
            target = handler if node.exc is None else node.exc
            if isinstance(target, ast.Call):
                target = target.func
            cls = eval(compile(ast.Expression(target), str(path), "eval"), namespace)  # noqa: S307
            where = f"{name}.{function}:{node.lineno}"
            allowed = (name, function, cls) in _ALLOWED_RAISES
            assert allowed or issubclass(cls, (InputError, OracleInvariantError)), (where, cls)
            checked += 1
    assert checked > 50


def test_algebra_raises_a_type_error_behind_valid_arguments_as_it_came(monkeypatch):
    # no argument list `_check_params` accepts fails to hash, so only a
    # broken cache reaches the re-raise; it must not be turned into a refusal
    def broken(family, *params):
        raise TypeError("broken cache")

    monkeypatch.setattr(algebras, "_canonical", broken)
    with pytest.raises(TypeError, match="broken cache"):
        algebra(Family.SL_R, 3)
    with pytest.raises(OutOfDomain):
        algebra(Family.SL_R, [3])
