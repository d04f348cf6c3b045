"""Contract checks for the finished pipeline: one test per acceptance
criterion of e7dirac.criteria, in order, read off the session context's
results, which `e7dirac verify` prints.  Each test fails with the
criterion's detail line; `-v` shows one PASS/FAIL line per criterion.
"""

from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from e7dirac import criteria


@pytest.mark.parametrize("name", [name for name, _ in criteria.CRITERIA])
def test_criterion(ctx, name):
    ok, detail = ctx.results[name]
    assert ok, f"{name}: {detail}"


def test_screening_examples_checks_every_small_nu(ctx):
    # a wrong |nu|^2 on the second smallest parameter fails the criterion,
    # and the detail line, which names only the first, is unchanged
    first, second = ctx.read("params_1110111.txt")
    wrong = replace(second, nu=(Fraction(0),) * len(second.nu))
    stub = SimpleNamespace(kgb=ctx.kgb, branch=ctx.branch, read=lambda name: (
        [first, wrong] if name == "params_1110111.txt" else ctx.read(name)))
    ok, detail = criteria.screening_examples(stub)
    assert not ok, "BUG: a wrong nu on the second parameter passes"
    assert detail == criteria.screening_examples(ctx)[1]


def test_property_suite_reads_failed_on_a_faulty_kernel(ctx, monkeypatch):
    # a lambda kernel off by 1/12 is caught by the cone_project oracle,
    # which shares only the certified face adjugates with it; an empty
    # height scan leaves no positive gap to see
    fast = criteria.lambda_norm_sq_fast
    monkeypatch.setattr(criteria, "lambda_norm_sq_fast", lambda mu: fast(mu) + Fraction(1, 12))
    monkeypatch.setattr(criteria, "enumerate_by_height", lambda cap: {})
    ok, detail = criteria.property_suite(ctx)
    assert not ok
    assert "lambda-chamber-independent FAILED" in detail
    assert "projection-idempotent ok" in detail
    assert "ularge-gap-bounded FAILED" in detail
