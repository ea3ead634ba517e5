"""Every function the benchmark's tracer wraps exists in the package.

A traced benchmark run looks up each ``(module, name)`` pair of
``perfbench/tracer.LAYER_FUNCTIONS`` with ``getattr``; a renamed or deleted
function would stop that run.  The pairs are read from the tracer's source
with ``ast``, so the check imports nothing from ``perfbench``.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def layer_functions() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{TRACER} assigns no LAYER_FUNCTIONS")


def test_the_tracer_lists_layers():
    pairs = layer_functions()
    assert pairs and all(module.startswith("fracsde.") for module, _ in pairs)


@pytest.mark.parametrize("module,name", layer_functions())
def test_layer_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
