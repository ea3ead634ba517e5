"""No module of the package imports an underscore name from a sibling.

A private name is a decision its module keeps to itself; a sibling that
imports it makes two modules know that decision.  Every import statement
is checked, at module level and inside functions.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(ROOT.glob("src/fracsde/*.py"))


def private_sibling_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each underscore name ``source`` imports from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        sibling = isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "fracsde"
        )
        if sibling:
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_the_check_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "from ._private import public\n"
        "from .chaos import _BLOCK, solve\n"
        "from fracsde.fields import _cholesky\n"
        "from numpy.lib import _private\n"
        "def f():\n"
        "    from . import _inner\n"
    )
    assert private_sibling_imports(source) == [(3, "_BLOCK"), (4, "_cholesky"), (7, "_inner")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_sibling_name(path):
    assert private_sibling_imports(path.read_text()) == [], path
