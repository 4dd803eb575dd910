"""Source hygiene of the package: no unused imports, no imports inside
functions, no unreferenced definitions."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qcatkit"


def _trees():
    return [(path.name, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def _test_trees():
    return [(f"tests/{path.name}", ast.parse(path.read_text()))
            for path in sorted((ROOT / "tests").glob("*.py"))]


def _references(tree, bare_names: bool = True) -> Counter:
    """Names read as variables (unless ``bare_names`` is false) or attributes,
    and string constants that are whole identifiers (the benchmark's tracer
    names what it wraps by string)."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if bare_names:
                out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out[node.value] += 1
    return out


def _definitions(tree):
    """Top-level functions and classes, then the non-dunder methods of the
    classes, each with whether it is a method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item, True


def test_no_unused_imports():
    unused = []
    for module, tree in _trees():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                unused += [f"{module}:{node.lineno} {alias.asname or alias.name}"
                           for alias in node.names if (alias.asname or alias.name) not in used]
    assert not unused


def test_no_package_imports_inside_functions():
    """In the package and in its tests, every package import sits at the
    top of its module."""
    local = [f"{module}:{node.lineno}" for module, tree in _trees() + _test_trees()
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.ImportFrom)
             and (node.level > 0 or node.module.split(".")[0] == "qcatkit")]
    assert not local


def test_every_definition_is_referenced():
    """A method is reached only through an attribute or a string, never
    through a bare name: a local function of the same name is not a call."""
    trees = [ast.parse(p.read_text())
             for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    counts = {bare: sum((_references(t, bare) for t in trees), Counter())
              for bare in (True, False)}
    # a reference from inside the definition itself (recursion) does not count
    dead = [f"{module}:{node.lineno} {node.name}" for module, tree in _trees()
            for node, method in _definitions(tree)
            if counts[not method][node.name] - _references(node, not method)[node.name] < 1]
    assert not dead


def _outermost_functions(tree):
    """Functions not nested in another function: top level and methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def test_no_unread_assignments():
    """A plain ``name = value`` in a function whose name the function never
    reads, nested closures included, is dead code, in the package and in
    its tests."""
    unread = []
    for module, tree in _trees() + _test_trees():
        for fn in _outermost_functions(tree):
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{module}:{node.lineno} {target.id} in {fn.name}"
                       for node in ast.walk(fn) if isinstance(node, ast.Assign)
                       for target in node.targets
                       if isinstance(target, ast.Name) and target.id not in read]
    assert not unread


MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_FACTORIES = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
                     "WeakValueDictionary"}


def test_no_module_level_mutable_state():
    """Tables live on the objects they describe.  A module-level dict, list
    or set outlives them; only a ``WeakKeyDictionary``, whose entries leave
    with their keys, is allowed."""
    found = []
    for module, tree in _trees():
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            value = node.value
            if isinstance(value, ast.Call):
                func = value.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                mutable = name in MUTABLE_FACTORIES
            else:
                mutable = isinstance(value, MUTABLE_LITERALS)
            if mutable:
                found.append(f"{module}:{node.lineno}")
    assert not found
