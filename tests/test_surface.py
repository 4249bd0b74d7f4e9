"""The package holds only what its CLI, suites and benchmark call.

A capability that only tests reach belongs in the tests (tests/oracles.py
when a test uses it as a reference). This scan parses src/hdperm/*.py and
lists every top-level function or class, and every public method or
property, whose name occurs nowhere in src/hdperm or perfbench/*.py outside
its own definition. A name occurs where it is read, imported or given as an
identifier string (getattr and the benchmark's hooks name attributes so).
The scan goes by name, not by binding: two definitions that share a name
count as used when either is.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "hdperm").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree: ast.AST) -> Counter:
    """Every occurrence of a name in tree: variables, attributes, imported
    names and strings that are identifiers."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found[node.value] += 1
    return found


def _definitions(path: Path, tree: ast.Module):
    """(qualified name, definition node) for each top-level function or
    class of the module and each public method or property of its classes."""
    module = path.stem
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def test_every_package_name_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    everywhere = Counter()
    for tree in trees.values():
        everywhere += _names(tree)
    unused = [
        qualname
        for path in PACKAGE
        for qualname, node in _definitions(path, trees[path])
        if everywhere[node.name] - _names(node)[node.name] <= 0
    ]
    assert not unused, f"named only by tests, or by nothing: {unused}"
