"""The layers that `benchmark/tracer.py` rebinds must exist with the shape it expects.

The tracer times each layer by rebinding a module attribute from outside
the library; a renamed function, a generator turned into a list, or a
layer that stops returning a sized tuple would break traced benchmark runs
without failing any library test.  This reads `LAYERS` from the tracer
file as it stands.  The tracer finds the layers in `sys.modules`, so a cold
`import liecheck.cli` must load every one of them.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import liecheck
from liecheck import algebras as al
from liecheck import involutions as inv
from liecheck import verify as vf
from liecheck.algebras import Family, simple

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("liecheck_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

# a small argument tuple for every "seq" layer
SEQ_INPUTS = {
    ("liecheck.involutions", "isotropy_entries"): (simple(Family.SU, 2, 3),),
    ("liecheck.involutions", "instantiations"): (simple(Family.SU, 2, 3),),
}


@pytest.mark.parametrize("name, module, attr, kind", tracer.LAYERS)
def test_traced_layer_has_the_expected_shape(name, module, attr, kind):
    assert kind in ("call", "gen", "seq"), name
    fn = getattr(importlib.import_module(module), attr, None)
    assert callable(fn), name
    if kind == "gen":
        assert inspect.isgeneratorfunction(fn), name
    elif kind == "seq":
        result = fn(*SEQ_INPUTS[(module, attr)])
        assert type(result) is tuple and len(result) > 0, name


def test_installed_tracer_counts_a_small_sweep():
    t = tracer.Tracer()
    t.install()
    try:
        rep = vf.sweep("all", 3)
    finally:
        t.uninstall()
    layers = t.layer_metrics()
    assert layers["verify.sweep.calls"] == 1
    assert layers["verify.verify_case.calls"] == len({c.algebra for c in rep.cases})
    for layer in ("algebras.render", "algebras.reductive_dims", "involutions.isotropy_entries"):
        assert layers[layer + ".calls"] > 0, layer
    # uninstall restores every original
    assert vf.sweep.__module__ == "liecheck.verify" and vf.sweep.__name__ == "sweep"


def test_route_checks_reach_the_layers_the_tracer_rebinds(monkeypatch):
    # the tracer times the row layer by rebinding `involutions.isotropy_entries`
    # and benchmark/child.py times each algebra by rebinding
    # `verify.verify_case`; a route that built rows another way, or a sweep
    # that called verify_case other than through the module attribute,
    # would drop out of those numbers without failing anything else
    rows_calls = []
    rows = inv.isotropy_entries
    monkeypatch.setattr(inv, "isotropy_entries", lambda a: rows_calls.append(a) or rows(a))
    checked = 0
    for a in al.iter_noncompact_simple(12):
        rows_calls.clear()
        vf.check_involutions(a)
        assert rows_calls == [a], al.render(a)
        checked += 1
    assert checked > 100

    case_calls = []
    case = vf.verify_case
    monkeypatch.setattr(vf, "verify_case", lambda a: case_calls.append(a) or case(a))
    rep = vf.sweep("all", 12)
    assert sorted(case_calls, key=al.render) == sorted(al.iter_noncompact_simple(12), key=al.render)
    assert {c.algebra for c in rep.cases} == set(case_calls)


def test_cold_import_loads_every_layer_and_no_dataclasses():
    # a fresh interpreter, as each CLI command starts: `dataclasses` would
    # pull in `inspect`, `ast`, `dis` and `tokenize`, about 10 ms of imports
    src = Path(liecheck.__file__).resolve().parents[1]
    code = "import sys; sys.path.insert(0, sys.argv[1]); import liecheck.cli; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True, timeout=60
    )
    loaded = set(out.stdout.split())
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert {module for _, module, _, _ in tracer.LAYERS} <= loaded
