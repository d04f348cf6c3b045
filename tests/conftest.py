from pathlib import Path

import pytest

from e7dirac import criteria
from e7dirac.atlas_ingest import FULL_SUPPORT
from e7dirac.norms import enumerate_by_height

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_dir():
    if not FIXTURE_DIR.is_dir():
        pytest.skip("fixture directory not present")
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def ctx(fixture_dir):
    """The one criteria context of the session: fixtures read once, and
    each enumeration computed at most once."""
    return criteria.Context(fixture_dir)


@pytest.fixture(scope="session")
def census(ctx):
    return ctx.census


@pytest.fixture(scope="session")
def ularge(census):
    """The u-large K-types of the property suite's scan, up to height
    criteria.HEIGHT_CAP, in sorted order."""
    return sorted(set(enumerate_by_height(criteria.HEIGHT_CAP)) - census)


@pytest.fixture(scope="session")
def certs(ctx):
    return ctx.certs


@pytest.fixture(scope="session")
def omega(ctx):
    return ctx.omega


@pytest.fixture(scope="session")
def kgb(ctx):
    return ctx.kgb


@pytest.fixture(scope="session")
def census_params(ctx):
    return ctx.read("params_1011108.txt")


@pytest.fixture(scope="session")
def table_rows(ctx):
    return ctx.table


@pytest.fixture(scope="session")
def phi_census(ctx):
    return ctx.phi


@pytest.fixture(scope="session")
def phi_slice(kgb):
    """Every 40th distinct fully supported involution of kgb.txt, in file
    order: 20 records, a phi census of a few seconds."""
    seen, distinct = set(), []
    for rec in kgb.values():
        if rec.support == FULL_SUPPORT and rec.theta not in seen:
            seen.add(rec.theta)
            distinct.append(rec)
    return distinct[::40]
