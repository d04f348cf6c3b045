"""Repository tooling checks.

The fixture builder imports package names at module level, so importing
it catches a rename or deletion that would break fixture regeneration;
and its writers, run into a temporary directory, reproduce fixtures/ byte
for byte.
Every module of the package is checked for imported names it never uses,
which a deletion elsewhere in the module easily leaves behind, and for
private module-level functions that no source, test, tool or benchmark
file references, which a refactor easily leaves behind.  The package
holds only what a run or a check reaches: a public function or class
that nothing under src/, tools/ or perfbench/ names is either dead or a
test reference, which belongs in tests/oracles.py; and a definition there
that no test names has rotted.  The package computes no floats: no float
literal, float() call, /=, math function beyond the integer ones, or true
division other than a Path join.  The screening bounds have one home:
no module restates NU_BOUND or an end of OMEGA_WINDOW outside their
definitions in screening, or |rho|^2 as a literal outside the criterion
that checks it.  Every committed benchmark record
BENCH_<n>.json at the repository root must parse and say where, how and
by which protocol it was measured."""

import ast
import importlib.util
import json
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_FIXTURES = ROOT / "tools" / "build_fixtures.py"
FIXTURES = ROOT / "fixtures"
PACKAGE = ROOT / "src" / "e7dirac"
REFERRING_DIRS = ("src", "tests", "tools", "perfbench")


def _build_fixtures():
    spec = importlib.util.spec_from_file_location("build_fixtures", BUILD_FIXTURES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_fixtures_imports():
    assert callable(_build_fixtures().main)


def test_build_fixtures_reproduces_the_fixtures(tmp_path):
    # the writers only: the tool's closing check_everything pass re-runs the
    # acceptance criteria, which the suite already runs on fixtures/
    _build_fixtures().write_fixtures(tmp_path)
    names = sorted(path.name for path in FIXTURES.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        got, want = (tmp_path / name).read_bytes(), (FIXTURES / name).read_bytes()
        assert got.splitlines() == want.splitlines() and got == want, f"{name} differs"


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


def _names(node) -> list[str]:
    """Every name the nodes under node read: Name ids, attribute names and
    imported names."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name)
    return out


def _references(node) -> list[str]:
    """_names and string constants (monkeypatch and getattr name a function
    by a string)."""
    return _names(node) + [sub.value for sub in ast.walk(node)
                           if isinstance(sub, ast.Constant) and isinstance(sub.value, str)]


def _private_function(node) -> bool:
    return (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__"))


def _public_definition(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _definition(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def _orphans(modules: dict[str, ast.Module], others: list[ast.Module],
             selected, refs) -> list[str]:
    """The module-level definitions of the named module trees that selected
    accepts and that no tree references, by refs, outside the definition's
    own body."""
    counts = Counter()
    for tree in [*modules.values(), *others]:
        counts.update(refs(tree))
    return sorted(f"{name}.{node.name} (line {node.lineno})"
                  for name, tree in modules.items() for node in tree.body
                  if selected(node) and counts[node.name] == refs(node).count(node.name))


def _trees(paths) -> list[ast.Module]:
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def _package() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_orphaned_private_functions_detector():
    package = {"m": ast.parse("def _used(): return 1\n"
                              "def _self(n): return _self(n - 1)\n"
                              "def _patched(): pass\n"
                              "def _gone(): pass\n"
                              "def __getattr__(name): pass\n"
                              "def public(): return _used()\n")}
    test = ast.parse("import m\nsetattr(m, '_patched', None)\n")
    assert _orphans(package, [test], _private_function, _references) == [
        "m._gone (line 4)", "m._self (line 2)"]


def test_package_has_no_orphaned_private_functions():
    modules = _package()
    others = _trees(path for folder in REFERRING_DIRS
                    for path in sorted((ROOT / folder).rglob("*.py")) if path.parent != PACKAGE)
    assert len(modules) > 5 and others
    orphans = _orphans(modules, others, _private_function, _references)
    assert not orphans, f"private functions that nothing references: {orphans}"


def test_orphaned_public_definitions_detector():
    package = {"m": ast.parse("def called(): pass\n"
                              "def imported(): pass\n"
                              "class Named: pass\n"
                              "def by_string(): pass\n"
                              "def gone(): pass\n"
                              "class Gone: pass\n"
                              "def recursive(n): return recursive(n - 1)\n"
                              "def _private(): pass\n"
                              "def user(): return called()\n")}
    tool = ast.parse("import m\nfrom m import imported\nm.user(m.Named)\n"
                     "getattr(m, 'by_string')()\n")
    assert _orphans(package, [tool], _public_definition, _names) == [
        "m.Gone (line 6)", "m.by_string (line 4)", "m.gone (line 5)", "m.recursive (line 7)"]
    # in tests/oracles.py a private definition counts too, and a reference
    # from another oracle keeps it
    oracles = {"oracles": ast.parse("def used(): return _aid()\n"
                                    "def _aid(): pass\n"
                                    "def _stale(): pass\n"
                                    "class Stale: pass\n")}
    test = ast.parse("from oracles import used\nassert used() is None\n")
    assert _orphans(oracles, [test], _definition, _names) == [
        "oracles.Stale (line 4)", "oracles._stale (line 3)"]


def test_package_has_no_orphaned_public_definitions():
    # tests do not count: a definition only tests reach belongs in
    # tests/oracles.py, and a name in a string (perfbench's tracer patches
    # functions by name) is no use
    modules = _package()
    others = _trees(path for folder in ("src", "tools", "perfbench")
                    for path in sorted((ROOT / folder).rglob("*.py")) if path.parent != PACKAGE)
    assert len(modules) > 5 and others
    orphans = _orphans(modules, others, _public_definition, _names)
    assert not orphans, (f"public definitions that no source, tool or benchmark reaches "
                         f"(move a test reference to tests/oracles.py): {orphans}")


def test_oracles_are_all_referenced_by_tests():
    oracles = ROOT / "tests" / "oracles.py"
    modules = {"oracles": _trees([oracles])[0]}
    tests = _trees(path for path in sorted((ROOT / "tests").glob("*.py")) if path != oracles)
    assert len(modules["oracles"].body) > 4 and tests
    orphans = _orphans(modules, tests, _definition, _names)
    assert not orphans, f"oracles that no test references: {orphans}"


MATH_EXACT = {"floor", "ceil", "isqrt", "gcd", "lcm"}  # the math functions that return ints
PATH_JOINS = {"criteria": {"self.fdir"}}  # per module, the left sides of the Path joins


def _float_uses(tree: ast.Module, path_bases=frozenset()) -> list[str]:
    """Where the module may compute a float: float literals, float() calls,
    /=, math names other than MATH_EXACT, and true divisions whose left side
    is not one of path_bases (a Path joined with /)."""
    math_names = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.Import) for alias in node.names
                  if alias.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float()"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/="))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
              and ast.unparse(node.left) not in path_bases):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{alias.name}") for alias in node.names
                      if alias.name not in MATH_EXACT]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in MATH_EXACT):
            found.append((node.lineno, f"math.{node.attr}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_float_uses_detector():
    tree = ast.parse("import math as m\nfrom math import floor, sqrt\n"
                     "x = 1.5 + 2j\ny = float(2)\nx /= 2\nz = x / y\n"
                     "p = self.fdir / 'kgb.txt'\nq = self.out / 'a'\n"
                     "r = m.floor(x) + m.log(2) + m.pi + x // 2 + divmod(3, 2)[0]\n")
    assert _float_uses(tree, {"self.fdir"}) == [
        "math.sqrt (line 2)", "literal 1.5 (line 3)", "literal 2j (line 3)",
        "float() (line 4)", "/= (line 5)", "x / y (line 6)", "self.out / 'a' (line 8)",
        "math.log (line 9)", "math.pi (line 9)"]
    assert "self.fdir / 'kgb.txt' (line 7)" in _float_uses(tree)


def test_package_computes_no_floats():
    modules = _package()
    assert len(modules) > 5 and set(PATH_JOINS) <= set(modules)
    for name, tree in modules.items():
        found = _float_uses(tree, PATH_JOINS.get(name, frozenset()))
        assert not found, f"{name}.py may compute a float: {found}"


# NU_BOUND and the ends of OMEGA_WINDOW, on the norm scale and on twice it
BOUND_CONSTANTS = {94, 108, 216, 469}
BOUND_HOMES = {("screening", "NU_BOUND"), ("screening", "OMEGA_WINDOW")}
RHO_SQ_HOME = ("criteria", "norm_spot_checks")  # checks |rho|^2 against the paper


def _stray_bounds(modules: dict[str, ast.Module]) -> list[str]:
    """Where the modules restate a screening bound: an int constant of
    BOUND_CONSTANTS outside the top-level statements that BOUND_HOMES name,
    or the call Fraction(399, 2), which is |rho|^2, outside RHO_SQ_HOME.
    Strings, docstrings included, do not count."""
    found = []
    for name, tree in modules.items():
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else []
            homes = {(name, ast.unparse(t)) for t in targets} | {(name, getattr(stmt, "name", ""))}
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Constant) and type(node.value) is int
                        and node.value in BOUND_CONSTANTS and not homes & BOUND_HOMES):
                    found.append(f"{name}.py: {node.value} (line {node.lineno})")
                elif (isinstance(node, ast.Call) and RHO_SQ_HOME not in homes
                      and ast.unparse(node) == "Fraction(399, 2)"):
                    found.append(f"{name}.py: Fraction(399, 2) (line {node.lineno})")
    return sorted(found)


def test_stray_bounds_detector():
    modules = {
        "screening": ast.parse("NU_BOUND = 94\nOMEGA_WINDOW = (Fraction(108), Fraction(469, 2))\n"
                               "CERT_FLOOR = 94\nlo2, hi2 = 216, 469\n"),
        "criteria": ast.parse("def norm_spot_checks(ctx):\n    return Fraction(399, 2)\n"
                              "CLASSICAL = Fraction(399, 2)\nx = Fraction(399, 4)\n"),
        "cli": ast.parse('"""|nu|^2 < 94 and |Lambda|^2 >= 108"""\n'
                         'LABEL = "nu_norm_sq_le_399/2"\nSIZE = 4676\n'
                         "def hj(q):\n    return q < 94 or q <= Fraction(399, 2)\n"),
    }
    assert _stray_bounds(modules) == [
        "cli.py: 94 (line 5)", "cli.py: Fraction(399, 2) (line 5)",
        "criteria.py: Fraction(399, 2) (line 3)", "screening.py: 216 (line 4)",
        "screening.py: 469 (line 4)", "screening.py: 94 (line 3)"]


def test_screening_bounds_have_one_home():
    modules = _package()
    assert len(modules) > 5 and "screening" in modules
    stray = _stray_bounds(modules)
    assert not stray, (f"screening bounds restated outside their home (import NU_BOUND or "
                       f"OMEGA_WINDOW from screening, read |rho|^2 off the datum): {stray}")


def test_benchmark_records_parse_and_name_their_setting():
    records = [path for path in sorted(ROOT.glob("BENCH_*.json"))
               if re.fullmatch(r"BENCH_\d+\.json", path.name)]
    assert len(records) >= 12
    for path in records:
        record = json.loads(path.read_text())
        assert isinstance(record, dict), f"{path.name} is not a JSON object"
        missing = [key for key in ("host", "command", "protocol") if key not in record]
        assert not missing, f"{path.name} lacks {missing}"
