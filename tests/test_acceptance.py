"""Contract checks for the finished pipeline: one test per acceptance
criterion of e7dirac.criteria, in order, the same list `e7dirac verify`
runs.  Each test fails with the criterion's detail line; `-v` shows one
PASS/FAIL line per criterion.
"""

import pytest

from e7dirac import criteria


@pytest.mark.parametrize("name, check", criteria.CRITERIA,
                         ids=[name for name, _ in criteria.CRITERIA])
def test_criterion(ctx, name, check):
    ok, detail = check(ctx)
    assert ok, f"{name}: {detail}"
