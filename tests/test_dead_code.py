"""No dead imports, unreferenced private functions or uncalled options.

A module-level import must be used in its module, unless its statement
carries `# noqa: F401` (names kept only so the benchmark tracer can patch
them at an import site, or re-exported through `__all__`).  A private
module-level function must be referenced from somewhere in the package,
and a private module-level constant must be read somewhere in it.
A parameter with a default must be set by some call in `src/`, `tests/`
or `perfbench/`; one that no call sets is a constant.  A module-level
function or class a module exports through `__all__` has a docstring.
Every `lru_cache` in the package has a literal, finite maxsize, and none is
a `functools.cache`: an unbounded cache grows with the inputs a run sees,
and the benchmark bounds peak memory.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sphere_twobody"


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
    """Every name a module reads, imports by name, or reads as an attribute.

    A name only assigned to is not read.
    """
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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


def _private_constants(tree):
    """Private names a module binds by a module-level assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names += [name.id for target in targets for name in ast.walk(target)
                  if isinstance(name, ast.Name)
                  and name.id.startswith("_") and not name.id.startswith("__")]
    return names


def test_every_private_constant_is_read():
    modules = _modules()
    refs = _references(tree for _, tree in modules.values())
    unread = [f"{name}: {constant}" for name, (_, tree) in modules.items()
              for constant in _private_constants(tree) if constant not in refs]
    assert not unread, unread


def test_the_guard_catches_an_unread_constant():
    source = ("_USED, _UNREAD = 1, 2\n_DEAD = 3\n_TYPED: int = 4\n__all__ = []\nPUBLIC = 5\n\n"
              "def f():\n    _LOCAL = 6\n    _DEAD = 7\n    return _USED + _LOCAL\n")
    tree = ast.parse(source)
    refs = _references([tree])
    assert [name for name in _private_constants(tree) if name not in refs] == [
        "_UNREAD", "_DEAD", "_TYPED"]


def _undocumented(tree):
    """Module-level functions and classes in `__all__` without a docstring."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name in _exported(tree) and ast.get_docstring(node) is None]


def test_every_exported_function_and_class_has_a_docstring():
    tree = ast.parse('__all__ = ["f", "g", "C"]\n\ndef f():\n    pass\n\n'
                     'def g():\n    """Doc."""\n\nclass C:\n    x: int\n\n'
                     'def h():\n    pass\n')
    assert _undocumented(tree) == ["f", "C"]
    missing = {name: found for name, (_, tree) in _modules().items()
               if (found := _undocumented(tree))}
    assert not missing, missing


def _functions(node, cls=None):
    """(enclosing class name or None, def) for every function under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield cls, child
        yield from _functions(child, child.name if isinstance(child, ast.ClassDef) else None)


def _defaulted(tree):
    """(callee name, parameter, position in a call or None) per defaulted parameter.

    A method's position skips self or cls, and __init__ is called by its
    class name.
    """
    found = []
    for cls, fn in _functions(tree):
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        bound = int(cls is not None and not static)
        name = cls if fn.name == "__init__" else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        found += [(name, arg.arg, index - bound)
                  for index, arg in enumerate(positional[first:], first)]
        found += [(name, arg.arg, None)
                  for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if default is not None]
    return found


def _dead_defaults(defining, calling):
    """Defaulted parameters of the `defining` trees that no call in `calling` sets.

    A call sets a parameter by keyword, by position, or through * or **
    (which set every parameter); a string key of a dict literal sets the
    parameter of that name, since such dicts are spread into calls.
    """
    keywords, positions, spread, keys = defaultdict(set), Counter(), set(), set()
    for tree in calling:
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keys.update(k.value for k in node.keys
                            if isinstance(k, ast.Constant) and isinstance(k.value, str))
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                keywords[name].update(k.arg for k in node.keywords)
                positions[name] = max(positions[name], len(node.args))
                if (any(k.arg is None for k in node.keywords)
                        or any(isinstance(a, ast.Starred) for a in node.args)):
                    spread.add(name)
    return [f"{name}.{param}" for tree in defining for name, param, index in _defaulted(tree)
            if not (name in spread or param in keywords[name] or param in keys
                    or index is not None and index < positions[name])]


def test_every_defaulted_parameter_has_a_caller():
    defining = [tree for _, tree in _modules().values()]
    calling = [ast.parse(path.read_text())
               for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")]
    assert not (dead := _dead_defaults(defining, calling)), dead


def test_the_guard_catches_an_option_no_call_sets():
    tree = ast.parse("class Box:\n    def __init__(self, n, size=1):\n        pass\n\n"
                     "    def grow(self, by=1, *, twice=False):\n        pass\n\n"
                     "def f(x, tol=1e-9, *, nd=6, seed=0):\n    pass\n\n"
                     "def g(y=0, *, z=1):\n    pass\n\n"
                     "Box(1).grow(2)\nf(*rest, nd=3)\ng(**opts)\nrow = {'seed': 1}\n")
    assert _dead_defaults([tree], [tree]) == ["Box.size", "grow.twice"]


def _unbounded_caches(tree):
    """Each `functools.cache`, and each `lru_cache` without a literal positive int maxsize."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "cache") for alias in node.names if alias.name == "cache"]
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and getattr(node.value, "id", None) == "functools"):
            found.append((node.lineno, "cache"))
        elif getattr(node, "id", getattr(node, "attr", None)) == "lru_cache":
            call = calls.get(id(node))
            sizes = [] if call is None else call.args[:1] + [
                k.value for k in call.keywords if k.arg == "maxsize"]
            size = sizes[0].value if sizes and isinstance(sizes[0], ast.Constant) else None
            if not (type(size) is int and size > 0):
                found.append((node.lineno, "lru_cache"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_every_cache_has_a_literal_finite_size():
    source = ("import functools\nfrom functools import cache, lru_cache\n\n"
              "@functools.lru_cache(maxsize=16)\ndef a(x):\n    pass\n\n"
              "@lru_cache(8)\ndef b(x):\n    pass\n\n"
              "@functools.lru_cache(maxsize=None)\ndef c(x):\n    pass\n\n"
              "@lru_cache\ndef d(x):\n    pass\n\n"
              "@functools.cache\ndef e(x):\n    pass\n\n"
              "@lru_cache(maxsize=SIZE)\ndef f(x):\n    pass\n\n"
              "g = functools.lru_cache(True)(len)\n")
    assert _unbounded_caches(ast.parse(source)) == [
        "line 2: cache", "line 12: lru_cache", "line 16: lru_cache", "line 20: cache",
        "line 24: lru_cache", "line 28: lru_cache"]
    found = {name: bad for name, (_, tree) in _modules().items()
             if (bad := _unbounded_caches(tree))}
    assert not found, found
