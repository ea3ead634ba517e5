"""Every module-level import of the package and the scripts is used.

The repository has no linter, so this stands in for pyflakes' F401: a
module-level import whose bound name the module never mentions, and does
not export through ``__all__``, fails.  ``__init__.py`` is skipped, since its
imports are the package's exports.  A line marked ``# noqa: F401`` is a
deliberate import for its side effect and is skipped too.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for p in [*ROOT.glob("src/fracsde/*.py"), *ROOT.glob("scripts/*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, bound name) of each unused module-level import in ``source``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            name = alias.asname or alias.name
            if isinstance(node, ast.Import) and alias.asname is None:
                name = alias.name.split(".")[0]  # import a.b binds a
            bound.append((alias.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_the_check_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy.random\n"
        "import numpy.linalg  # noqa: F401\n"
        "from math import pi, tau\n"
        "import json as js\n"
        "__all__ = ['tau']\n"
        "print(js.dumps(1))\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "numpy"), (5, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == [], path
