"""Each module's `__all__` names exactly its public functions and classes."""

import importlib
import inspect
import pkgutil

import pytest

import casebound

MODULES = [info.name for info in pkgutil.iter_modules(casebound.__path__)
           if hasattr(importlib.import_module(f"casebound.{info.name}"), "__all__")]


def test_package_all_resolves():
    assert [name for name in casebound.__all__ if not hasattr(casebound, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_matches_public_names(name):
    module = importlib.import_module(f"casebound.{name}")
    listed = set(module.__all__)
    assert sorted(n for n in listed if not hasattr(module, n)) == []
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - listed) == []
