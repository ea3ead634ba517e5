"""Every module-level definition of the package is reached by a command.

Production code is what the CLI runs.  This walks names from ``cli.main``
and the runners of its command table over the module-level definitions of
``src/fracsde/*.py`` (functions, classes and assigned names), following
``from .module import name`` across modules; a definition that the walk
does not reach fails.  Reference code that tests compare against lives in
``tests/oracles.py`` instead.  The ``(module, name)`` pairs of
``perfbench/tracer.LAYER_FUNCTIONS``, which a traced benchmark run looks up
with ``getattr``, are roots of the walk too, so they and everything they
use are kept.

Like ``tests/test_imports_used.py`` it reads sources with ``ast`` and
imports nothing.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracsde"
TRACER = ROOT / "perfbench" / "tracer.py"


def layer_functions() -> list[tuple[str, str]]:
    """The tracer's pairs, module names relative to the package."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS"
                        for t in node.targets)):
            pairs = ast.literal_eval(node.value)
            return [(module.removeprefix("fracsde."), name) for module, name in pairs]
    raise AssertionError(f"{TRACER} assigns no LAYER_FUNCTIONS")


def _assigned_names(node: ast.stmt) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def module_index(sources: dict[str, str]):
    """Definitions and sibling imports of each module.

    Returns ``(defs, imports)``: ``defs[(module, name)]`` is the defining
    statement (dunder names such as ``__all__`` are not definitions), and
    ``imports[module][local]`` the ``(module, name)`` a module-level
    ``from .x import name`` binds.
    """
    defs, imports = {}, {}
    for module, source in sources.items():
        imports[module] = {}
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[(module, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in _assigned_names(node):
                    if not name.startswith("__"):
                        defs[(module, name)] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module][alias.asname or alias.name] = (
                        node.module, alias.name
                    )
    return defs, imports


def unreachable(sources: dict[str, str], roots) -> list[tuple[str, str]]:
    """Module-level definitions of ``sources`` that no root reaches by name."""
    defs, imports = module_index(sources)

    def resolve(module: str, name: str):
        seen = set()
        while (module, name) not in defs and (module, name) not in seen:
            seen.add((module, name))
            if name not in imports.get(module, {}):
                return None
            module, name = imports[module][name]
        return (module, name) if (module, name) in defs else None

    reached = set()
    todo = [key for key in (resolve(*r) for r in roots) if key is not None]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                target = resolve(key[0], node.id)
                if target is not None and target not in reached:
                    todo.append(target)
    return sorted(set(defs) - reached)


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def command_roots(sources: dict[str, str]) -> list[tuple[str, str]]:
    """``cli.main`` and the values of ``cli._COMMANDS``."""
    roots = [("cli", "main")]
    for node in ast.parse(sources["cli"]).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_COMMANDS"
                        for t in node.targets)):
            roots += [("cli", v.id) for v in node.value.values]
    assert len(roots) > 1, "cli assigns no _COMMANDS table"
    return roots


def test_the_walk_sees_what_it_should():
    sources = {
        "cli": "from .a import run as go\n"
               "_COMMANDS = {'x': go}\n"
               "def main():\n    return _COMMANDS\n",
        "a": "from .b import helper\n"
             "LIMIT = 3\n"
             "def run():\n    return helper(LIMIT)\n"
             "def orphan():\n    return run()\n",
        "b": "__all__ = ['helper', 'spare']\n"
             "class Helper:\n    pass\n"
             "def helper(n: Helper):\n    return n\n"
             "def spare():\n    pass\n",
    }
    assert unreachable(sources, command_roots(sources)) == [
        ("a", "orphan"), ("b", "spare")
    ]
    assert unreachable(sources, command_roots(sources) + [("b", "spare")]) == [
        ("a", "orphan")
    ]


def test_every_extra_root_is_defined():
    # a stale entry would keep nothing alive and hide nothing; name it
    defs, _ = module_index(package_sources())
    assert [root for root in layer_functions() if root not in defs] == []


def test_every_definition_is_reached():
    sources = package_sources()
    roots = command_roots(sources) + layer_functions()
    assert unreachable(sources, roots) == []
