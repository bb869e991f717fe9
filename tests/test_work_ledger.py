"""Work ledger: how many times a small sweep calls each counted layer.

`sweep("all", 16)` runs in a fresh interpreter, so no cache is warm, with
each counted function rebound in every liecheck module that holds it.  Each
count in `CEILINGS` is a ceiling: a change may lower one, and says so when
it does, but never raises one.  Beside the ceilings the ledger states where
the work goes:

- no route builds a row instance's value (`_value`) or calls
  `instantiations`, and `reductive_dims` is called only from the routes
  that measure something other than a row instance (the restricted-form
  and maximal-rank tables and the triality classes);
- `max_fixed_dim` is called once per rank-one algebra and once per
  distinct factor of each product check.
"""

import json
import subprocess
import sys
from pathlib import Path

from liecheck import algebras as al

CASES = 4531

CEILINGS = {
    "isotropy_entries": 399,
    "max_fixed_dim": 144,
    "render": 3127,
    "reductive": 2072,
    "reductive_dims": 29,
    "instantiations": 0,
    "_value": 0,
}

# (module, function) of every caller allowed to measure with reductive_dims
NON_ROW_MEASURES = {
    ("liecheck.verify", "check_restricted_form"),
    ("liecheck.verify", "_subgroup_dims"),
    ("liecheck.verify", "check_involutions"),
    ("liecheck.involutions", "triality_classes"),
}

_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import liecheck.cli
from liecheck import algebras as al, involutions as inv, verify as vf

counted = {
    "isotropy_entries": inv, "max_fixed_dim": inv, "instantiations": inv, "_value": inv,
    "render": al, "reductive": al, "reductive_dims": al,
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

rep = vf.sweep("all", 16)
print(json.dumps({
    "cases": len(rep.cases),
    "counts": counts,
    "callers": sorted(callers),
    "rank_one": len({c.algebra for c in rep.cases if c.route == vf.ROUTE_RANK1}),
    "product_factors": sum(len(set(p.factors)) for p in rep.products),
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
    assert counts["max_fixed_dim"] == got["rank_one"] + got["product_factors"]
