"""The public surface: every exported name resolves, so a star import of
the package or of any of its modules works."""

import importlib
import pkgutil

import pytest

import su4c

MODULES = ["su4c"] + [f"su4c.{m.name}" for m in pkgutil.iter_modules(su4c.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate exports"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)

