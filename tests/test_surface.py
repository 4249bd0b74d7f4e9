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


# What the package keeps only for the benchmark (ROADMAP item 2(a)): the
# hdperm.kernels module, counting._line_table, and per_d's threads and
# backend parameters. The package itself never reaches them; perfbench
# still does. The list may only shrink: 2(a) deletes it with the probes.
BENCHMARK_ONLY = {"hdperm.kernels", "counting._line_table", "per_d(threads)", "per_d(backend)"}


def _reached(tree: ast.AST) -> set:
    """The members of BENCHMARK_ONLY that tree imports, names or passes: a
    kernels module or attribute (also in a dotted string), the name
    _line_table, and a threads or backend keyword of a call that names
    per_d as its function or one of its arguments."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("kernels"):
            found.add("hdperm.kernels")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "kernels" in node.value.split("."):
                found.add("hdperm.kernels")
        elif isinstance(node, ast.Call):
            callee = [node.func, *node.args]
            if any(_names(part)["per_d"] for part in callee):
                found.update(f"per_d({kw.arg})" for kw in node.keywords
                             if kw.arg in ("threads", "backend"))
    names = _names(tree)
    if names["kernels"]:
        found.add("hdperm.kernels")
    if names["_line_table"]:
        found.add("counting._line_table")
    return found


def test_the_benchmark_only_surface_is_reached_by_perfbench_alone():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    reached = {
        path.name: _reached(tree)
        for path, tree in trees.items()
        if path in PACKAGE and path.stem != "kernels"
    }
    per_d = next(
        node for node in trees[ROOT / "src" / "hdperm" / "counting.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "per_d"
    )
    read = {name for name in ("threads", "backend")
            if any(_names(stmt)[name] for stmt in per_d.body)}
    reached["counting.py::per_d"] = {f"per_d({name})" for name in read}
    assert not {name: found for name, found in reached.items() if found}
    benchmark = set().union(*(_reached(trees[path]) for path in CALLERS if path not in PACKAGE))
    assert BENCHMARK_ONLY <= benchmark, f"gone from perfbench: {BENCHMARK_ONLY - benchmark}"
