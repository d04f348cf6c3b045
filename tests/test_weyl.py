import random
from fractions import Fraction

import pytest

from e7dirac import structure, weyl
from e7dirac.structure import (
    add,
    ambient,
    build_root_datum,
    inner,
    is_k_type,
    neg,
    norm_sq,
    pair_coroot,
    reflect,
    sub,
    to_ambient,
    vec,
)
from e7dirac.weyl import (
    dominant_rep,
    enumerate_chambers,
    spin_module_dimension_check,
    weyl_dim_k,
)

from oracles import apply_word


@pytest.fixture(scope="module")
def datum():
    return build_root_datum()


@pytest.fixture(scope="module")
def chambers():
    return enumerate_chambers()


def test_dominant_rep_of_rho_is_trivial(datum):
    dom, word = dominant_rep(datum.rho, "G")
    assert dom == datum.rho, "BUG: rho is already dominant"
    assert word == ()


def test_dominant_rep_of_minus_rho(datum):
    dom, word = dominant_rep(neg(datum.rho), "G")
    assert dom == datum.rho, "BUG: -rho must come back to rho"
    assert len(word) == 63, f"BUG: longest element has length 63, got {len(word)}"
    assert apply_word(word, neg(datum.rho)) == datum.rho


def test_dominant_rep_word_reproduces_result(datum):
    rng = random.Random(77)
    for _ in range(50):
        v = vec(*[Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3])) for _ in range(8)])
        for group in ("G", "K"):
            dom, word = dominant_rep(v, group)
            assert apply_word(word, v) == dom, "BUG: word does not carry v to its dominant rep"
            simples = datum.simple_roots if group == "G" else datum.compact_simple
            assert all(inner(dom, a) >= 0 for a in simples)


def test_dominant_rep_k_fixes_central_part(datum):
    v = add(datum.rho_n, datum.zeta)
    dom, _ = dominant_rep(neg(v), "K")
    assert inner(dom, datum.zeta) == inner(neg(v), datum.zeta), (
        "BUG: W(k) must fix the center of k"
    )


def test_dominant_rep_minus_rho_n_spin_norm(datum):
    dom, _ = dominant_rep(neg(datum.rho_n), "K")
    assert norm_sq(add(dom, datum.rho_c)) == Fraction(399, 2)


def test_chamber_count_and_base(chambers, datum):
    assert len(chambers) == 56
    assert chambers[0].rho_j == datum.rho
    assert chambers[0].word == ()
    assert chambers[0].rho_n_j == datum.rho_n


def test_chambers_pairwise_distinct(chambers):
    assert len({ch.rho_j for ch in chambers}) == 56


def test_chamber_words_act_correctly(chambers, datum):
    for ch in chambers:
        assert apply_word(ch.word, datum.rho) == ch.rho_j, f"BUG: word of chamber {ch.index}"


def test_chamber_rho_n_k_dominant(chambers, datum):
    for ch in chambers:
        for a in datum.compact_simple:
            assert inner(ch.rho_n_j, a) >= 0, f"BUG: rho_n^({ch.index}) not K-dominant"


def test_chamber_simples_pair_one_with_rho_j(chambers):
    for ch in chambers:
        for a in ch.simples:
            assert pair_coroot(ch.rho_j, a) == 1, (
                f"BUG: chamber {ch.index} simples are not simple for its rho"
            )


def test_chamber_simples_match_word(chambers, datum):
    for ch in chambers[:10] + chambers[-3:]:
        for i, a in enumerate(datum.simple_roots):
            assert apply_word(tuple(reversed(ch.word)), ch.simples[i]) == a


def test_chamber_contains_k_positive_system(chambers, datum):
    # w^(-1) of every compact positive root stays positive: each chamber's
    # positive system contains the fixed one for k.
    pos = set(datum.positive_roots)
    for ch in chambers:
        inv = tuple(reversed(ch.word))
        for a in datum.compact_positive:
            assert apply_word(inv, a) in pos, (
                f"BUG: chamber {ch.index} does not contain the compact positives"
            )


def test_chamber_weights_are_dual_basis(chambers):
    for ch in chambers[:5] + chambers[-2:]:
        for i, z in enumerate(ch.weights):
            for j, a in enumerate(ch.simples):
                assert pair_coroot(z, a) == (1 if i == j else 0)


def test_orbit_membership_random(datum):
    # Random vectors in the rho orbit land back on rho.
    rng = random.Random(20240822)
    roots = datum.positive_roots
    for _ in range(200):
        v = datum.rho
        for _ in range(rng.randint(1, 25)):
            r = roots[rng.randrange(len(roots))]
            v = sub(v, tuple(pair_coroot(v, r) * x for x in r))
        dom, _ = dominant_rep(v, "G")
        assert dom == datum.rho, "BUG: orbit of rho must recover rho"


def test_cone_covering_sampled(chambers, datum):
    # Every K-dominant integral weight lies in some chamber's closed cone.
    rng = random.Random(5)
    for _ in range(50):
        coords = tuple(rng.randint(0, 6) for _ in range(6)) + (3 * rng.randint(-5, 5),)
        v = to_ambient("varpi", coords)
        ok = any(
            all(pair_coroot(v, a) >= 0 for a in ch.simples) for ch in chambers
        )
        assert ok, f"BUG: {coords} lies in no chamber cone"


def test_weyl_dim_small_cases():
    assert weyl_dim_k((0, 0, 0, 0, 0, 0, 0)) == 1
    assert weyl_dim_k((0, 0, 0, 0, 0, 0, 3)) == 1, "BUG: central twist has dimension 1"
    assert weyl_dim_k((1, 0, 0, 0, 0, 0, 2)) == 27
    assert weyl_dim_k((0, 0, 0, 0, 0, 1, -2)) == 27
    assert weyl_dim_k((1, 0, 0, 0, 0, 1, 0)) == 650
    assert weyl_dim_k((0, 0, 0, 0, 0, 0, -12)) == 1


def test_weyl_dim_contragredient_invariant():
    rng = random.Random(9)
    for _ in range(20):
        a, b, c, d, e, f = (rng.randint(0, 3) for _ in range(6))
        g = rng.randint(-4, 4)
        assert weyl_dim_k((a, b, c, d, e, f, g)) == weyl_dim_k((f, b, e, d, c, a, -g))


def test_spin_module_dimension(chambers):
    # the check raises unless the 56 rho_n^(j) are distinct K-types
    assert spin_module_dimension_check(), "BUG: spinor dimensions must sum to 2^27"


# ---- the integer path ----


def _ints(v):
    return type(v) is tuple and all(type(x) is int for x in v)


def test_datum_and_walks_stay_on_ints(datum, chambers, monkeypatch):
    # every datum and chamber vector is a tuple of ints (SCALE = 6 clears
    # every denominator), and on such vectors the walks never fall back
    # to Fraction
    vectors = [*datum.simple_roots, *datum.positive_roots, *datum.fundamental_weights,
               *datum.compact_simple, *datum.compact_positive, *datum.pplus_roots,
               *datum.pminus_roots, *datum.varpi, datum.rho, datum.rho_c, datum.rho_n,
               datum.zeta, datum.highest_root]
    assert all(map(_ints, vectors))
    for ch in chambers:
        assert all(map(_ints, (ch.rho_j, ch.rho_n_j, *ch.simples, *ch.weights))), ch.index
    mu = (1, 2, 0, 3, 0, 1, -6)
    assert is_k_type(mu)
    v = to_ambient("varpi", mu)
    assert _ints(v)
    assert all(_ints(reflect(v, a)) for a in datum.positive_roots)
    assert not hasattr(weyl, "Fraction")

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built on the integer path")

    monkeypatch.setattr(structure, "Fraction", no_fraction)
    for group in ("G", "K"):
        dom, word = dominant_rep(neg(v), group)
        assert _ints(dom) and apply_word(word, neg(v)) == dom
    dim = weyl_dim_k((1, 0, 0, 0, 0, 1, 0))
    assert type(dim) is int and dim == 650
    monkeypatch.undo()
    # weyl_dim_k divides once, exactly: off the lattice the assert fires
    with pytest.raises(AssertionError, match="non-integral dimension"):
        weyl_dim_k((Fraction(1, 2), 0, 0, 0, 0, 0, 0))


def _plain_walk(v, simples):
    """A dominance walk in plain Fraction ambient coordinates: reflect at
    the lowest-index simple root pairing negatively until none does.  Each
    simple root is kept as its nonzero coordinates; as (a, a) = 2, the
    coroot pairing is (v, a) itself."""
    sparse = [[(k, c) for k, c in enumerate(a) if c] for a in simples]
    v, word = list(v), []
    while True:
        for i, a in enumerate(sparse):
            p = sum(v[k] * c for k, c in a)
            if p < 0:
                for k, c in a:
                    v[k] -= p * c
                word.append(i + 1)
                break
        else:
            return tuple(v), tuple(word)


def test_walks_against_plain_fraction_walk(datum, chambers, certs, omega):
    # the K-walks of mu - rho_n_j over the 56 chambers of every certificate
    # K-type, and for every norm-window character lambda the G-walk of
    # w_j(lambda), j running through the chambers, which ends at lambda:
    # vectors and words of dominant_rep and apply_word against _plain_walk
    k_simples = [ambient(a) for a in datum.compact_simple]
    g_simples = [ambient(a) for a in datum.simple_roots]
    cases = [(sub(to_ambient("varpi", e.ktype), ch.rho_n_j), "K", k_simples, None)
             for e in certs for ch in chambers]
    for i, lam in enumerate(sorted(omega)):
        v = to_ambient("zeta", lam)
        cases.append((apply_word(chambers[i % 56].word, v), "G", g_simples, v))
    assert len(cases) == 71 * 56 + 4676
    for v, group, simples, want in cases:
        dom, word = dominant_rep(v, group)
        assert (ambient(dom), word) == _plain_walk(ambient(v), simples), (v, group)
        assert apply_word(word, v) == dom
        assert want is None or dom == want
