"""Every name a module of the package lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import archadapt

MODULES = [f"archadapt.{info.name}" for info in pkgutil.iter_modules(archadapt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_listed_name(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
