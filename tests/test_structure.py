import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from e7dirac.structure import (
    SPAN_COMPLEMENT,
    build_root_datum,
    contragredient,
    from_ambient,
    in_span,
    inner,
    is_k_type,
    norm_sq,
    pair_coroot,
    sub,
    to_ambient,
    vec,
)


@pytest.fixture(scope="module")
def datum():
    return build_root_datum()


def test_root_counts(datum):
    assert len(datum.positive_roots) == 63
    assert len(datum.compact_positive) == 36
    assert len(datum.pplus_roots) == 27
    assert len(datum.pminus_roots) == 27


def test_special_vectors(datum):
    assert datum.rho == vec(0, 1, 2, 3, 4, 5, Fraction(-17, 2), Fraction(17, 2))
    assert datum.rho_c == vec(0, 1, 2, 3, 4, -4, -4, 4)
    assert datum.zeta == vec(0, 0, 0, 0, 0, 1, Fraction(-1, 2), Fraction(1, 2))
    assert datum.highest_root == vec(0, 0, 0, 0, 0, 0, -1, 1)
    assert datum.rho_n == sub(datum.rho, datum.rho_c)


def test_norm_spot_checks(datum):
    assert inner(datum.rho, datum.rho) == Fraction(399, 2)
    assert pair_coroot(datum.rho, datum.highest_root) == 17
    assert norm_sq(datum.rho_c) == 78
    assert norm_sq(datum.rho_n) == Fraction(243, 2)
    assert inner(datum.rho_c, datum.zeta) == 0


def test_fundamental_weight_pairings(datum):
    for i, z in enumerate(datum.fundamental_weights):
        for j, a in enumerate(datum.simple_roots):
            assert pair_coroot(z, a) == (1 if i == j else 0)


def test_dimension_bookkeeping(datum):
    dim_k = 2 * len(datum.compact_positive) + 7
    dim_p = len(datum.pplus_roots) + len(datum.pminus_roots)
    assert dim_k == 79
    assert dim_p == 54
    assert dim_p - dim_k == -25


def test_zeta_pairing_trichotomy(datum):
    for r in datum.positive_roots:
        assert inner(r, datum.zeta) in (0, 1)
    for r in datum.pplus_roots:
        assert inner(r, datum.zeta) == 1
    for r in datum.pminus_roots:
        assert inner(r, datum.zeta) == -1


def test_all_roots_in_span(datum):
    for r in datum.positive_roots:
        assert in_span(r)
    for z in datum.fundamental_weights:
        assert in_span(z)
    assert inner(SPAN_COMPLEMENT, datum.rho) == 0


def test_to_ambient_zeta_rho(datum):
    assert to_ambient("zeta", [1] * 7) == datum.rho


def test_to_ambient_varpi_rho_c(datum):
    assert to_ambient("varpi", [1, 1, 1, 1, 1, 1, 0]) == datum.rho_c


def test_from_ambient_beta(datum):
    assert from_ambient("varpi", datum.highest_root) == (1, 0, 0, 0, 0, 0, 2)
    assert from_ambient("varpi", datum.rho_n) == (0, 0, 0, 0, 0, 0, 27)


def test_from_ambient_rejects_off_span():
    with pytest.raises(ValueError):
        from_ambient("zeta", vec(0, 0, 0, 0, 0, 0, 0, 1))


def test_round_trip_random_tuples():
    rng = random.Random(20240822)
    for _ in range(1000):
        coords = tuple(rng.randint(-9, 9) for _ in range(7))
        basis = "zeta" if rng.random() < 0.5 else "varpi"
        assert from_ambient(basis, to_ambient(basis, coords)) == coords


def test_is_k_type_examples():
    assert is_k_type((0, 0, 0, 0, 0, 0, 0))
    assert is_k_type((1, 0, 0, 0, 0, 0, 2))
    assert not is_k_type((0, 0, 0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        is_k_type((-1, 0, 0, 0, 0, 0, 0))


def test_ktype_form_is_the_weight_lattice():
    # the congruence on structure.ktype_form holds iff the zeta
    # coordinates are integers
    rng = random.Random(20261019)
    for _ in range(300):
        coords = tuple(rng.randint(0, 5) for _ in range(6)) + (rng.randint(-9, 9),)
        integral = all(type(x) is int for x in from_ambient("zeta", to_ambient("varpi", coords)))
        assert is_k_type(coords) == integral


def test_contragredient_examples():
    assert contragredient((1, 0, 0, 0, 0, 0, 2)) == (0, 0, 0, 0, 0, 1, -2)
    assert contragredient((0, 0, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 0, 0)
    assert contragredient((1, 1, 1, 1, 1, 1, 0)) == (1, 1, 1, 1, 1, 1, 0)


@given(st.tuples(*[st.integers(0, 5) for _ in range(6)], st.integers(-15, 15)))
def test_contragredient_involutive(coords):
    assert contragredient(contragredient(coords)) == coords


@given(st.tuples(*[st.integers(0, 5) for _ in range(6)], st.integers(-15, 15)))
def test_contragredient_preserves_k_type(coords):
    assert is_k_type(contragredient(coords)) == is_k_type(coords)


@given(st.tuples(*[st.integers(0, 5) for _ in range(6)], st.integers(-15, 15)))
def test_contragredient_preserves_norm(coords):
    v = to_ambient("varpi", coords)
    w = to_ambient("varpi", contragredient(coords))
    assert norm_sq(v) == norm_sq(w)
