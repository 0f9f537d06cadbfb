"""The public surface: every exported name resolves, so a star import of
the package or of any of its modules works; the package exports exactly
what its modules export, the pinned list below; the benchmark's traced
names resolve; no function takes a parameter it never reads; and the
thresholds are constants that some kernel reads, verify's the one a caller
sets."""

import ast
import dataclasses
import importlib
import inspect
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


# The pipeline: compile, verify and lower; the executor; tomography and its
# scores; the names they take and return; and the tolerances. Widening or
# narrowing it is a change to this list.
PUBLIC_NAMES = [
    "CALIBRATED_NOISE", "CircuitParams", "ClassParams", "DEFAULT_TOL", "G_GATE", "GateElement",
    "LocalGate", "MEASUREMENT_SETTINGS", "NoiseModel", "NotAProductError",
    "NotUnitaryError", "PULSE_COUNT", "RealityViolationError", "STATE_LABELS", "SeededRng",
    "TOMOGRAPHY_INPUT_LABELS", "Tolerances", "VerificationReport", "__version__",
    "circuit_to_unitary", "class_parameters", "decompose", "decompose_many",
    "entanglement_fidelity", "exact_experiment", "input_state", "is_unitary", "local_invariants",
    "lower_to_pulses", "mean_fidelity_from_entanglement", "mean_state_fidelity", "nearest_unitary",
    "phase_invariant_distance", "process_matrix_of_unitary", "pulse_angles", "r_gate",
    "reconstruct_process", "reconstruct_state", "run_experiment", "run_experiments", "rz_gate",
    "sample_su4", "state_fidelity", "tolerances_from_env", "verify",
]


def test_package_exports_the_pinned_list():
    assert len(PUBLIC_NAMES) == 45
    assert sorted(su4c.__all__) == PUBLIC_NAMES


TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names() -> dict:
    """perfbench's TRACED table, span name -> (module, attribute), read from
    the source without importing the benchmark."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_benchmark_names_resolve():
    # the traced benchmark run looks these up with getattr, and reads the
    # pulse count, the child streams and the default tolerances
    traced = traced_names()
    assert traced
    missing = [f"{m}.{a}" for m, a in traced.values() if not callable(getattr(importlib.import_module(m), a, None))]
    assert missing == []
    assert su4c.PULSE_COUNT == 35
    assert callable(su4c.SeededRng.spawn)
    assert isinstance(su4c.DEFAULT_TOL, su4c.Tolerances)


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


def test_every_tolerance_is_read():
    # a field no code reads is printed in every report and checks nothing
    read = {
        node.attr
        for path in Path(su4c.__file__).parent.glob("*.py")
        if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [field.name for field in dataclasses.fields(su4c.Tolerances)]
    assert len(fields) == 9
    assert [name for name in fields if name not in read] == []


def test_one_threshold_parameter():
    # the thresholds are the package's constants: no public function takes
    # a Tolerances record, and the one whose threshold a caller sets is
    # verify's; is_unitary, the unitarity predicate, takes its tolerance
    # as its argument, as it is used at two (unitarity, input_unitarity)
    values = {v for v in dataclasses.astuple(su4c.DEFAULT_TOL) if isinstance(v, float)}
    records, thresholds = [], {}
    for name in su4c.__all__:
        function = getattr(su4c, name)
        if not inspect.isfunction(function):
            continue
        for param in inspect.signature(function).parameters.values():
            if param.name == "tol" or "Tolerances" in str(param.annotation):
                records.append(f"{name}.{param.name}")
            elif isinstance(param.default, float) and param.default in values:
                thresholds.setdefault(name, []).append(param.name)
    assert records == []
    assert thresholds == {"verify": ["max_distance"], "is_unitary": ["atol"]}
