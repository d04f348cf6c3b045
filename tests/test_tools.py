"""The fixture builder imports package names at module level, so importing
it catches a rename or deletion that would break fixture regeneration."""

import importlib.util
from pathlib import Path

BUILD_FIXTURES = Path(__file__).resolve().parent.parent / "tools" / "build_fixtures.py"


def test_build_fixtures_imports():
    spec = importlib.util.spec_from_file_location("build_fixtures", BUILD_FIXTURES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
