"""No dead imports or unreferenced private functions in the package source.

A module-level import must be used in its module, unless its statement
carries `# noqa: F401` (names kept only so the benchmark tracer can patch
them at an import site, or re-exported through `__all__`).  A private
module-level function must be referenced from somewhere in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sphere_twobody"


def _modules():
    return {path.name: (path.read_text(), ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))}


def _exported(tree):
    """Names listed in a module-level `__all__`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _dead_imports(source, tree):
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    dead = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                dead.append(f"line {node.lineno}: {bound}")
    return dead


def _references(trees):
    """Every name a module reads, imports by name, or reaches as an attribute."""
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
    return refs


def test_no_unused_module_level_imports():
    dead = {name: found for name, (source, tree) in _modules().items()
            if (found := _dead_imports(source, tree))}
    assert not dead, dead


def test_every_private_function_is_referenced():
    modules = _modules()
    refs = _references(tree for _, tree in modules.values())
    unreferenced = [
        f"{name}: {node.name}"
        for name, (_, tree) in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in refs
    ]
    assert not unreferenced, unreferenced


def test_the_guard_catches_a_dead_import_and_function():
    source = ("import cmath\nimport math  # noqa: F401\nfrom .x import (\n    a,\n    b,\n)\n\n"
              "def _sqrtc(x):\n    return a(x)\n")
    tree = ast.parse(source)
    assert _dead_imports(source, tree) == ["line 1: cmath", "line 3: b"]
    assert "_sqrtc" not in _references([tree])
