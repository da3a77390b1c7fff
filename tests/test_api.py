import importlib

import pytest

import randers

MODULES = ["boundary", "config", "expressions", "fields", "geodesics", "integrators",
           "norms", "recovery", "zermelo"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"randers.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_shooting_record_exported():
    from randers import geodesics

    assert "PairShots" in geodesics.__all__ and "PairShot" not in geodesics.__all__
    assert not hasattr(geodesics, "PairShot")
    assert not hasattr(randers, "PairShot")
