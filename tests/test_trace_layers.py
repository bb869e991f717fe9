"""The layers that `benchmark/tracer.py` rebinds must exist with the shape it expects.

The tracer times each layer by rebinding a module attribute from outside
the library; a renamed function, a generator turned into a list, or a
layer that stops returning a sized tuple would break traced benchmark runs
without failing any library test.  This reads `LAYERS` from the tracer
file as it stands.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
