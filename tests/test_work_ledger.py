"""Work ledger: how many times a small sweep calls each counted layer.

`sweep("all", 16)` runs in a fresh interpreter that imports only
`liecheck.verify`, so no cache is warm, under one `sys.setprofile` hook.
The hook rebinds nothing: on each ``"call"`` event, generator resumes
included, it counts the frame by its code object.  Each counted name must
be a plain function, and the ledger fails naming one that is not.  Each
count in `CEILINGS` is a ceiling: a change may lower one, and says so when
it does, but never raises one.

- the seven layer functions (`isotropy_entries`, `max_fixed_dim`,
  `instantiations`, `parse_algebra`, `render`, `reductive`,
  `reductive_dims`) count by their ``__code__``, whoever calls them;
- `case_results` counts frames of `CaseResult`'s generated Python
  ``__new__``: the involution rows' cases are made by `tuple.__new__`
  without it, so a per-case constructor that comes back raises this count
  from 131 to the sweep's 4,531 cases and more;
- `verify_calls` counts the frames of code in `liecheck/verify.py`: one
  `CaseTally.add` call per algebra keeps it at 6,717, and a Python frame
  per case, such as a generator that yields each case, raises it past
  11,000;
- `gc_collections` counts the cyclic collections that start during the
  sweep, seen through `gc.callbacks`;
- `margin_objects` counts the distinct int objects among the cases'
  margins: every case with one margin value holds the same int
  (`verify._MARGINS`), so it equals the sweep's 251 distinct margins; an
  int per case, as a margin above 256 gets when it is not shared, raises
  it to 258.

Beside the ceilings the ledger states where the work goes:

- no route calls `instantiations` or reads a row's `instances`: the
  `parse_algebra` ceiling counts only the catalog names a cold sweep
  parses (the exceptional rows, the catalog's coincidence, compact-form
  and complexification columns, and the restricted-form table), so
  parsing the labels of even one classical row back into values breaks
  it;
- `reductive_dims` is called only from the routes that measure something
  other than a row instance (the restricted-form and maximal-rank tables
  and the triality classes), read off each call's calling frame;
- `max_fixed_dim` is called once per rank-one algebra and once per
  distinct factor of each product check;
- `isotropy_entries` builds each algebra's rows once (through
  `check_involutions`, or `max_fixed_dim` on the rank-one route), again
  once per distinct factor of each product check, and once more for
  `f44_equality_case`, which reads f4(4)'s rows a second time.

The matrix oracle's operator rows reach elimination as ints: a profile
hook of the same kind reads the `rows` argument of every
`_exact.reduced_form` and `_exact.in_span` call, and shows that every value
of every row they receive from `element`'s span tests or under
`matrix_fixed_dims` is an int, for `g22_case` and a criterion-3 subset
that includes a rational element, all on the span path (the
signed-permutation detector is turned off).  The subset's 44 classes call
no `reduced_form` under `matrix_fixed_dims` there: each of their column
classes holds at most two rows of a set, and `sparse_ranks` ranks those
without elimination.  With the detector on, a second hook counts calls,
and shows that those classes, signed permutations that map the basis onto
itself up to signs, are validated and counted through their basis maps,
with no `_sparse_mul`, `_operator_rows`, `in_span`, `reduced_form` or
`sparse_ranks` call, while the rational element takes the sparse products,
`_operator_rows` and the span tests.
"""

import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from liecheck import _exact
from liecheck import algebras as al
from liecheck import matrixoracle as mo
from liecheck.centralizers import SigFamily, Signature, enumerate_signatures

CASES = 4531

CEILINGS = {
    "isotropy_entries": 399,
    "max_fixed_dim": 144,
    "render": 3094,
    "reductive": 2044,
    "reductive_dims": 29,
    "instantiations": 0,
    "parse_algebra": 243,
    "gc_collections": 0,
    "case_results": 131,
    "verify_calls": 6717,
}

# (module, function) of every caller allowed to measure with reductive_dims
NON_ROW_MEASURES = {
    ("liecheck.verify", "check_restricted_form"),
    ("liecheck.verify", "_subgroup_dims"),
    ("liecheck.verify", "check_involutions"),
    ("liecheck.involutions", "triality_classes"),
}

_CHILD = """
import gc, json, sys, types
sys.path.insert(0, sys.argv[1])
from liecheck import algebras as al, involutions as inv, verify as vf

counted = {
    "isotropy_entries": inv.isotropy_entries, "max_fixed_dim": inv.max_fixed_dim,
    "instantiations": inv.instantiations, "parse_algebra": al.parse_algebra,
    "render": al.render, "reductive": al.reductive, "reductive_dims": al.reductive_dims,
    "case_results": vf.CaseResult.__new__,
}
not_functions = sorted(n for n, fn in counted.items() if type(fn) is not types.FunctionType)
names = {fn.__code__: n for n, fn in counted.items() if n not in not_functions}
dims_code = al.reductive_dims.__code__
counts = dict.fromkeys(counted, 0)
counts["verify_calls"] = 0
callers = set()
collections = []


def collection_started(phase, info):
    if phase == "start":
        collections.append(info["generation"])


def profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in names:
        counts[names[code]] += 1
        if code is dims_code:
            frame = frame.f_back
            while frame.f_code.co_name.startswith("<"):  # a comprehension
                frame = frame.f_back
            callers.add((frame.f_globals["__name__"], frame.f_code.co_name))
    if code.co_filename == vf.__file__:
        counts["verify_calls"] += 1


gc.callbacks.append(collection_started)
sys.setprofile(profile)
rep = vf.sweep("all", 16)
sys.setprofile(None)
gc.callbacks.remove(collection_started)
counts["gc_collections"] = len(collections)
print(json.dumps({
    "not_functions": not_functions,
    "cases": len(rep.cases),
    "counts": counts,
    "callers": sorted(callers),
    "algebras": len({c.algebra for c in rep.cases}),
    "rank_one": len({c.algebra for c in rep.cases if c.route == vf.ROUTE_RANK1}),
    "product_factors": sum(len(set(p.factors)) for p in rep.products),
    "margin_values": len({c.margin for c in rep.cases}),
    "margin_objects": len({id(c.margin) for c in rep.cases}),
}))
"""


def test_sweep_work_stays_within_the_ledger():
    src = Path(al.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    got = json.loads(out.stdout)
    assert not got["not_functions"], ("not a plain function", got["not_functions"])
    assert got["cases"] == CASES
    counts = got["counts"]
    over = {name: (counts[name], ceiling) for name, ceiling in CEILINGS.items() if counts[name] > ceiling}
    assert not over, over
    assert {tuple(c) for c in got["callers"]} <= NON_ROW_MEASURES, got["callers"]
    # the profile sees verify.py: each algebra's cases come from verify_case
    assert counts["verify_calls"] >= got["algebras"]
    assert counts["max_fixed_dim"] == got["rank_one"] + got["product_factors"]
    # the 1 is f44_equality_case's
    assert counts["isotropy_entries"] == got["algebras"] + got["product_factors"] + 1
    assert got["margin_objects"] == got["margin_values"] == 251


def _mul(a, b):
    return [[sum(x * y[c] for x, y in zip(row, b)) for c in range(len(b[0]))] for row in a]


def _subset():
    """The criterion-3 subset: the 44 order-<=4 classes of so(2,3), su(2,2)
    and so*(6)."""
    return [
        sig
        for family, params in ((SigFamily.SO_PQ, (2, 3)), (SigFamily.SU_PQ, (2, 2)), (SigFamily.SOSTAR_2N, (3,)))
        for sig in enumerate_signatures(family, params, order_le_4=True)
    ]


def _rational():
    """A rational element's base class and rows: an so(2,3) class whose
    negative coordinates are turned by 3-4-5 rotations."""
    base = mo.from_signature(Signature(SigFamily.SO_PQ, (2, 3), ((1, 0, 1), (2, 1, 1))))
    rows = [list(r) for r in base.entries]
    for i in (2, 3):
        rot = [[Fraction(int(r == c)) for c in range(5)] for r in range(5)]
        rot[i][i] = rot[i + 1][i + 1] = Fraction(3, 5)
        rot[i][i + 1], rot[i + 1][i] = Fraction(-4, 5), Fraction(4, 5)
        rows = _mul(_mul(rot, rows), [list(c) for c in zip(*rot)])
    return base, rows


def test_operator_rows_reach_elimination_as_ints(monkeypatch):
    # (eliminating function, functions on the stack, the rows' type, all
    # values ints); both take their rows as `rows`: reduced_form(rows) and
    # in_span(reduced, rows).  The signed-permutation detector is off, so
    # that every element below takes the span path.
    monkeypatch.setattr(mo, "_signed_permutation", lambda a: None)
    calls = []
    names = {_exact.reduced_form.__code__: "reduced_form", _exact.in_span.__code__: "in_span"}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            rows = frame.f_locals["rows"]
            ints = isinstance(rows, (list, tuple)) and all(type(x) is int for _, vals in rows for x in vals)
            stack, caller = set(), frame.f_back
            while caller is not None:
                stack.add(caller.f_code.co_name)
                caller = caller.f_back
            calls.append((names[frame.f_code], stack, type(rows), ints))

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        # the hook sees a Fraction row, in in_span itself and in
        # sparse_ranks' own reduced_form: three rows of one class, since a
        # class of two is ranked without elimination
        assert not _exact.in_span({}, [([0], [Fraction(1, 2)])])
        assert _exact.sparse_ranks([[([0, 1], [1, Fraction(1, 2)]), ([0], [1]), ([1], [1])]]) == [2]
        seen = [(name, ints) for name, _, _, ints in calls]
        calls.clear()

        mo.g22_case()
        elements = [mo.from_signature(sig) for sig in _subset()]
        base, rows = _rational()
        rational = mo.element(base.ambient, rows)
        assert mo.matrix_fixed_dims(rational) == mo.matrix_fixed_dims(base)
        start = len(calls)
        for e in elements:
            mo.matrix_fixed_dims(e)
    finally:
        sys.setprofile(saved)
    # every column class of these classes' operator rows holds at most two
    # rows of a set, so none is eliminated (an elimination per class of two
    # rows made 100 calls here)
    assert [name for name, stack, _, _ in calls[start:] if "matrix_fixed_dims" in stack] == []
    assert seen == [("in_span", False), ("reduced_form", False)]
    assert any(type(x) is Fraction for r in rational.entries for x in r)
    assert len(elements) == 44
    assert {kind for _, _, kind, _ in calls} <= {list, tuple}
    # element's span tests, and sparse_ranks' reduced forms under
    # matrix_fixed_dims
    checked = [(name, ints) for name, stack, _, ints in calls if name == "in_span" or "matrix_fixed_dims" in stack]
    assert {name for name, _ in checked} == {"in_span", "reduced_form"}
    assert all(ints for _, ints in checked)


def test_signed_permutations_skip_the_sparse_products():
    # the subset's classes are signed permutations that map the basis: once
    # their bases are built, they are validated and counted with no sparse
    # product, span test, elimination or rank; the rational element, whose
    # rows hold several nonzeros, takes the order test's three products (its
    # order is 4), one `_operator_rows` call and two span tests, of its k
    # rows and of its p rows
    names = {
        fn.__code__: fn.__name__
        for fn in (
            mo._sparse_mul,
            mo._operator_rows,
            _exact.in_span,
            _exact.reduced_form,
            _exact.sparse_ranks,
        )
    }
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sigs, (base, rows) = _subset(), _rational()
    for sig in sigs:
        mo.from_signature(sig)  # builds each ambient's bases
    seen = []
    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        for sig in sigs:
            mo.matrix_fixed_dims(mo.from_signature(sig))
        seen.append(dict(counts))
        counts.clear()
        mo.element(base.ambient, rows)
        seen.append(dict(counts))
    finally:
        sys.setprofile(saved)
    assert seen == [
        {},
        {"_sparse_mul": 3, "_operator_rows": 1, "in_span": 2},
    ]
