"""Repository tooling checks.

The fixture builder imports package names at module level, so importing
it catches a rename or deletion that would break fixture regeneration.
Every module of the package is checked for imported names it never uses,
which a deletion elsewhere in the module easily leaves behind, and for
private module-level functions that no source, test, tool or benchmark
file references, which a refactor easily leaves behind.  Every committed
benchmark record BENCH_<n>.json at the repository root must parse and
say where, how and by which protocol it was measured."""

import ast
import importlib.util
import json
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_FIXTURES = ROOT / "tools" / "build_fixtures.py"
PACKAGE = ROOT / "src" / "e7dirac"
REFERRING_DIRS = ("src", "tests", "tools", "perfbench")


def test_build_fixtures_imports():
    spec = importlib.util.spec_from_file_location("build_fixtures", BUILD_FIXTURES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by import statements that no Name or attribute base
    in the module reads; __future__ imports do not bind a name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_unused_imports_detector():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, sys\nfrom math import lcm as l, gcd\n"
                     "print(os.sep, l)\n")
    assert _unused_imports(tree) == ["gcd (line 3)", "sys (line 2)"]


def test_package_has_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        assert not unused, f"{path.name} imports names it never uses: {unused}"


def _references(node) -> list[str]:
    """Every name the nodes under node read: Name ids, attribute names,
    imported names, and string constants (monkeypatch and getattr name a
    function by a string)."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.append(sub.value)
    return out


def _orphaned_private_functions(modules: dict[str, ast.Module],
                                others: list[ast.Module]) -> list[str]:
    """The private module-level functions (_name) of the named module trees
    that no tree references outside the function's own body."""
    counts = Counter()
    for tree in [*modules.values(), *others]:
        counts.update(_references(tree))
    orphans = []
    for name, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and counts[node.name] == _references(node).count(node.name)):
                orphans.append(f"{name}.{node.name} (line {node.lineno})")
    return sorted(orphans)


def test_orphaned_private_functions_detector():
    package = {"m": ast.parse("def _used(): return 1\n"
                              "def _self(n): return _self(n - 1)\n"
                              "def _patched(): pass\n"
                              "def _gone(): pass\n"
                              "def __getattr__(name): pass\n"
                              "def public(): return _used()\n")}
    test = ast.parse("import m\nsetattr(m, '_patched', None)\n")
    assert _orphaned_private_functions(package, [test]) == [
        "m._gone (line 4)", "m._self (line 2)"]


def test_package_has_no_orphaned_private_functions():
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    others = [ast.parse(path.read_text(), filename=str(path))
              for folder in REFERRING_DIRS for path in sorted((ROOT / folder).rglob("*.py"))
              if path.parent != PACKAGE]
    assert len(modules) > 5 and others
    orphans = _orphaned_private_functions(modules, others)
    assert not orphans, f"private functions that nothing references: {orphans}"


def test_benchmark_records_parse_and_name_their_setting():
    records = [path for path in sorted(ROOT.glob("BENCH_*.json"))
               if re.fullmatch(r"BENCH_\d+\.json", path.name)]
    assert len(records) >= 12
    for path in records:
        record = json.loads(path.read_text())
        assert isinstance(record, dict), f"{path.name} is not a JSON object"
        missing = [key for key in ("host", "command", "protocol") if key not in record]
        assert not missing, f"{path.name} lacks {missing}"
