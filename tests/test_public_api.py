"""The public surface: every exported name resolves, so a star import of
the package or of any of its modules works; the package exports exactly
what its modules export; and no function takes a parameter it never reads."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import su4c

MODULES = ["su4c"] + [f"su4c.{m.name}" for m in pkgutil.iter_modules(su4c.__path__)]

# the modules whose public names the package re-exports; io and cli are
# reached through their modules
PACKAGE_MODULES = ["circuits", "compiler", "config", "experiment", "gates", "haar", "linalg", "tomography"]


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


def test_package_exports_the_module_lists():
    union = [name for m in PACKAGE_MODULES for name in importlib.import_module(f"su4c.{m}").__all__]
    assert len(set(union)) == len(union), "a name exported by two modules"
    assert sorted(su4c.__all__) == sorted(["__version__", *union])


def unread_parameters(path: Path) -> list[str]:
    """module.function.parameter for each parameter, other than self, that
    its function's body never reads."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread += [f"{path.stem}.{name}.{p}" for p in params if p != "self" and p not in read]
    return unread


def test_no_unread_parameters():
    # a parameter the body never reads is a knob that turns nothing
    sources = sorted(Path(su4c.__file__).parent.glob("*.py"))
    assert sources
    assert [p for path in sources for p in unread_parameters(path)] == []
