"""Source hygiene of the package: no unused imports, no unreferenced definitions."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qcatkit"


def _trees():
    return [(path.name, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def _word_counts() -> Counter:
    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    files.append(ROOT / "pyproject.toml")
    return Counter(re.findall(r"\w+", "\n".join(p.read_text() for p in files)))


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item


def test_no_unused_imports():
    unused = []
    for module, tree in _trees():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                unused += [f"{module}:{node.lineno} {alias.asname or alias.name}"
                           for alias in node.names if (alias.asname or alias.name) not in used]
    assert not unused


def test_every_definition_is_referenced():
    counts = _word_counts()
    # the definition itself is one occurrence
    dead = [f"{module}:{node.lineno} {node.name}" for module, tree in _trees()
            for node in _definitions(tree) if counts[node.name] < 2]
    assert not dead
