"""Repository tooling checks.

The fixture builder imports package names at module level, so importing
it catches a rename or deletion that would break fixture regeneration.
Every module of the package is checked for imported names it never uses,
which a deletion elsewhere in the module easily leaves behind."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_FIXTURES = ROOT / "tools" / "build_fixtures.py"
PACKAGE = ROOT / "src" / "e7dirac"


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
