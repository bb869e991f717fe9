"""Work ledger: how many times a small sweep calls each counted layer.

`sweep("all", 16)` runs in a fresh interpreter, so no cache is warm, with
each counted function rebound in every liecheck module that holds it.  Each
count in `CEILINGS` is a ceiling: a change may lower one, and says so when
it does, but never raises one.  `gc_collections` counts the cyclic
collections that start during the sweep, seen through `gc.callbacks`.
`case_results` counts the cases built through `CaseResult`'s generated
Python ``__new__``, rebound on the class: the involution rows' cases are
made by `tuple.__new__` without it, so a per-case constructor that comes
back raises this count from 131 to the sweep's 4,531 cases.
`verify_calls` counts the Python-level calls, generator resumes included,
that run code of `liecheck/verify.py`, seen through `sys.setprofile`: one
`CaseTally.add` call per algebra keeps it at 6,717, and a Python frame per
case, such as a generator that yields each case, raises it past 11,000.
`margin_objects` counts the distinct int objects among the cases' margins:
every case with one margin value holds the same int (`verify._MARGINS`),
so it equals the sweep's 251 distinct margins; an int per case, as a
margin above 256 gets when it is not shared, raises it to 258.
Beside the ceilings the ledger states where the work goes:

- no route calls `instantiations` or reads a row's `instances`: the
  `parse_algebra` ceiling counts only the catalog names a cold sweep
  parses (the exceptional rows, the catalog's coincidence, compact-form
  and complexification columns, and the restricted-form table), so
  parsing the labels of even one classical row back into values breaks
  it;
- `reductive_dims` is called only from the routes that measure something
  other than a row instance (the restricted-form and maximal-rank tables
  and the triality classes);
- `max_fixed_dim` is called once per rank-one algebra and once per
  distinct factor of each product check;
- `isotropy_entries` builds each algebra's rows once (through
  `check_involutions`, or `max_fixed_dim` on the rank-one route), again
  once per distinct factor of each product check, and once more for
  `f44_equality_case`, which reads f4(4)'s rows a second time.

The matrix oracle's operator rows reach elimination as ints: rebinding
`_exact.reduced_form` and `_exact.in_span` the same way shows that every
value of every row they receive from `element`'s span tests or under
`matrix_fixed_dims` is an int, for `g22_case` and a criterion-3 subset
that includes a rational element.
"""

import json
import subprocess
import sys
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
import gc, json, sys
sys.path.insert(0, sys.argv[1])
import liecheck.cli
from liecheck import algebras as al, involutions as inv, verify as vf

counted = {
    "isotropy_entries": inv, "max_fixed_dim": inv, "instantiations": inv,
    "parse_algebra": al, "render": al, "reductive": al, "reductive_dims": al,
}
counts = dict.fromkeys(counted, 0)
callers = set()
modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "liecheck"]


def counting(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        if name == "reductive_dims":
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension
                frame = frame.f_back
            callers.add((frame.f_globals["__name__"], frame.f_code.co_name))
        return fn(*args, **kwargs)
    return wrapper


for name, home in counted.items():
    fn = getattr(home, name)
    wrapper = counting(name, fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)

collections = []


def collection_started(phase, info):
    if phase == "start":
        collections.append(info["generation"])


case_result_new = vf.CaseResult.__new__


def counting_new(cls, *args, **kwargs):
    counts["case_results"] += 1
    return case_result_new(cls, *args, **kwargs)


def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename == vf.__file__:
        counts["verify_calls"] += 1


counts["case_results"] = counts["verify_calls"] = 0
vf.CaseResult.__new__ = counting_new
gc.callbacks.append(collection_started)
sys.setprofile(profile)
rep = vf.sweep("all", 16)
sys.setprofile(None)
gc.callbacks.remove(collection_started)
counts["gc_collections"] = len(collections)
print(json.dumps({
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
    assert got["cases"] == CASES
    counts = got["counts"]
    for name, ceiling in CEILINGS.items():
        assert counts[name] <= ceiling, (name, counts[name], ceiling)
    assert {tuple(c) for c in got["callers"]} <= NON_ROW_MEASURES, got["callers"]
    # the profile sees verify.py: each algebra's cases come from verify_case
    assert counts["verify_calls"] >= got["algebras"]
    assert counts["max_fixed_dim"] == got["rank_one"] + got["product_factors"]
    # the 1 is f44_equality_case's
    assert counts["isotropy_entries"] == got["algebras"] + got["product_factors"] + 1
    assert got["margin_objects"] == got["margin_values"] == 251


def _mul(a, b):
    return [[sum(x * y[c] for x, y in zip(row, b)) for c in range(len(b[0]))] for row in a]


def _rebind(monkeypatch, fn, wrapper):
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "liecheck":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


def test_operator_rows_reach_elimination_as_ints(monkeypatch):
    calls = []  # (eliminating function, functions on the stack, all values ints)

    def recording(fn, name):
        # the rows are the last argument of both: reduced_form(rows) and
        # in_span(reduced, rows)
        def wrapper(*args):
            rows = list(args[-1])
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            calls.append((name, names, all(type(x) is int for _, vals in rows for x in vals)))
            return fn(*args[:-1], rows)

        return wrapper

    for name in ("reduced_form", "in_span"):
        fn = getattr(_exact, name)
        _rebind(monkeypatch, fn, recording(fn, name))
    # the rebinding is seen: a Fraction row is recorded, by in_span itself
    # and by sparse_ranks' own reduced_form
    assert not _exact.in_span({}, [([0], [Fraction(1, 2)])])
    assert _exact.sparse_ranks([[([0, 1], [1, Fraction(1, 2)]), ([0], [1])]]) == [2]
    assert [(name, ints) for name, _, ints in calls] == [("in_span", False), ("reduced_form", False)]
    calls.clear()

    mo.g22_case()
    elements = [
        mo.from_signature(sig)
        for family, params in ((SigFamily.SO_PQ, (2, 3)), (SigFamily.SU_PQ, (2, 2)), (SigFamily.SOSTAR_2N, (3,)))
        for sig in enumerate_signatures(family, params, order_le_4=True)
    ]
    # a rational element: an so(2,3) class whose negative coordinates are
    # turned by 3-4-5 rotations
    base = mo.from_signature(Signature(SigFamily.SO_PQ, (2, 3), ((1, 0, 1), (2, 1, 1))))
    rows = [list(r) for r in base.entries]
    for i in (2, 3):
        rot = [[Fraction(int(r == c)) for c in range(5)] for r in range(5)]
        rot[i][i] = rot[i + 1][i + 1] = Fraction(3, 5)
        rot[i][i + 1], rot[i + 1][i] = Fraction(-4, 5), Fraction(4, 5)
        rows = _mul(_mul(rot, rows), [list(c) for c in zip(*rot)])
    rational = mo.element(base.ambient, rows)
    assert any(type(x) is Fraction for r in rational.entries for x in r)
    assert mo.matrix_fixed_dims(rational) == mo.matrix_fixed_dims(base)
    for e in elements:
        mo.matrix_fixed_dims(e)
    assert len(elements) > 20
    # element's span tests, and sparse_ranks' reduced forms under
    # matrix_fixed_dims
    checked = [(name, ints) for name, names, ints in calls if name == "in_span" or "matrix_fixed_dims" in names]
    assert {name for name, _ in checked} == {"in_span", "reduced_form"}
    assert all(ints for _, ints in checked)
