import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import hwmlab

REPO = Path(__file__).resolve().parents[1]


def test_import_leaves_out_scipy_optimize():
    # scipy.optimize alone costs most of the package import time; only
    # recurrence_search needs it
    env = dict(os.environ, PYTHONPATH=str(Path(hwmlab.__file__).parents[1]))
    code = "import sys, hwmlab; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def traced_targets():
    """The (layer, module, function) triples the benchmark's tracer rebinds."""
    tree = ast.parse((REPO / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_traced_functions_resolve():
    targets = traced_targets()
    assert targets
    for _, module, name in targets:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def test_public_names_resolve():
    # a deletion that leaves a stale __all__ entry breaks `from ... import *`
    package = Path(hwmlab.__file__).parent
    modules = ["hwmlab"] + [f"hwmlab.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"]
    assert len(modules) > 10
    for name in modules:
        module = importlib.import_module(name)
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"{name}.{public}"
