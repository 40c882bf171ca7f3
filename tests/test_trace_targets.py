"""The benchmark's traced run wraps program functions by name: every function
listed in ``perfbench/layers.json`` must exist, and every parameter the span
observers in ``perfbench/spans.py`` bind must still be in its signature.

The benchmark files are only read, never imported, so nothing is written
under ``perfbench/``.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layer_functions():
    layers = json.loads((PERFBENCH / "layers.json").read_text(encoding="utf-8"))
    return sorted(layers["functions"])


def _observed_parameters():
    """``{"module.function": {parameter, ...}}`` read off the ``_OBSERVERS``
    lambdas, whose first argument is the bound-arguments mapping."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    observers = next(node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "_OBSERVERS" for t in node.targets))
    out = {}
    for key, observer in zip(observers.keys, observers.values):
        bound = observer.args.args[0].arg
        out[key.value] = {
            node.slice.value for node in ast.walk(observer.body)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == bound and isinstance(node.slice, ast.Constant)}
    return out


def _resolve(name):
    module_name, func_name = name.split(".")
    module = importlib.import_module(f"tensortopics.{module_name}")
    return getattr(module, func_name, None)


@pytest.mark.parametrize("name", _layer_functions())
def test_traced_function_exists(name):
    assert callable(_resolve(name)), f"{name} is listed in perfbench/layers.json"


def test_observers_bind_existing_parameters():
    observed = _observed_parameters()
    assert observed.get("spectral.hooi_refine") == {"iters"}  # the parser finds bindings
    for name, parameters in observed.items():
        function = _resolve(name)
        assert callable(function), f"{name} has a span observer in perfbench/spans.py"
        missing = parameters - set(inspect.signature(function).parameters)
        assert not missing, f"{name} no longer takes {sorted(missing)}"
