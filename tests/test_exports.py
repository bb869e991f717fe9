"""Each name a module lists in ``__all__`` exists, so a star import works.

A name left in ``__all__`` after its definition is deleted makes
``from liecheck.<module> import *`` raise AttributeError, and nothing else
in the suite star-imports.  Both take about 0.02 s, imports included.
"""

import importlib

import pytest


@pytest.mark.parametrize("name", ["involutions", "verify"])
def test_every_name_in_all_exists_and_star_import_works(name):
    module = importlib.import_module(f"liecheck.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, (name, missing)
    namespace = {}
    exec(f"from liecheck.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace), name
