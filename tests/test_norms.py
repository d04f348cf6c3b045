import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e7dirac import norms
from e7dirac.norms import (
    _allowable_chambers,
    _check_spin_lemmas,
    _count_range,
    _tables,
    _kernel_height,
    _lambda_kernel,
    _project_in_chamber,
    _witness_c,
    chamber_descents,
    chamber_weights,
    cone_project,
    dirac_inequality_holds,
    enumerate_by_height,
    height_witnesses,
    is_usmall,
    ktype_ambient,
    lambda_datum,
    lambda_norm_sq_fast,
    lambda_witness,
    norm12_ktype,
    scan_order,
    scan_tables,
    height_steps,
    infchar_ambient,
    infchar_norm_sq,
    spin_sq12,
    spin_sq12_with_weights,
    usmall_facets,
    weight_gram2,
)
from e7dirac.atlas_ingest import parse_fixture
from e7dirac.criteria import USMALL_CENSUS_SIZE
from e7dirac.criteria import _random_ktype as random_ktype
from e7dirac.structure import (
    RANK,
    ZERO,
    add,
    build_root_datum,
    contragredient,
    dot,
    from_ambient,
    inner,
    is_k_type,
    neg,
    norm_sq,
    pair_coroot,
    scale,
    sub,
    to_ambient,
    vec,
)
from e7dirac.weyl import dominant_rep, enumerate_chambers

from oracles import lp_solve, spin_datum

TRIVIAL = (0, 0, 0, 0, 0, 0, 0)


ktype_strategy = st.builds(
    lambda a, k: tuple(a)
    + (2 * a[0] + 3 * a[1] + 4 * a[2] + 6 * a[3] + 5 * a[4] + 4 * a[5] + 3 * k,),
    st.tuples(*[st.integers(0, 3)] * 6),
    st.integers(-5, 5),
)


@pytest.fixture(scope="module")
def datum():
    return build_root_datum()


@pytest.fixture(scope="module")
def chambers():
    return enumerate_chambers()


# ---- cone projection ----


def test_project_fixes_cone_points(chambers):
    rng = random.Random(3)
    for ch in (chambers[0], chambers[17], chambers[55]):
        for _ in range(5):
            pt = tuple(Fraction(0) for _ in range(8))
            for w in ch.weights:
                pt = add(pt, scale(rng.randint(0, 4), w))
            assert cone_project(pt, ch) == pt


def test_project_polar_cone_to_zero(chambers):
    ch = chambers[0]
    eta = neg(add(ch.weights[0], ch.weights[4]))
    assert cone_project(eta, ch) == tuple(Fraction(0) for _ in range(8))


def test_project_is_nearest_point(chambers):
    # the defining property, checked against random cone points
    rng = random.Random(11)
    ch = chambers[9]
    for _ in range(20):
        eta = vec(*[Fraction(rng.randint(-12, 12), rng.choice([1, 2])) for _ in range(8)])
        # keep eta in the 7-dim span: project out the complement direction
        comp = vec(0, 0, 0, 0, 0, 0, 1, 1)
        eta = sub(eta, scale(inner(eta, comp) / inner(comp, comp), comp))
        p = cone_project(eta, ch)
        base = norm_sq(sub(eta, p))
        for _ in range(25):
            c = tuple(Fraction(0) for _ in range(8))
            for w in ch.weights:
                c = add(c, scale(Fraction(rng.randint(0, 6), 2), w))
            assert norm_sq(sub(eta, c)) >= base, "BUG: projection is not the nearest point"


def test_project_idempotent_and_contractive(chambers):
    rng = random.Random(19)
    ch = chambers[31]
    comp = vec(0, 0, 0, 0, 0, 0, 1, 1)
    pairs = []
    for _ in range(100):
        eta = vec(*[rng.randint(-9, 9) for _ in range(8)])
        eta = sub(eta, scale(inner(eta, comp) / inner(comp, comp), comp))
        pairs.append(eta)
    projected = [cone_project(e, ch) for e in pairs]
    for e, p in zip(pairs, projected):
        assert cone_project(p, ch) == p, "BUG: projection must be idempotent"
    for i in range(0, 100, 2):
        e1, e2 = pairs[i], pairs[i + 1]
        p1, p2 = projected[i], projected[i + 1]
        assert norm_sq(sub(p1, p2)) <= norm_sq(sub(e1, e2)), (
            "BUG: projection must not expand distances"
        )


# ---- lambda ----


def test_lambda_trivial_frozen():
    ld = lambda_datum(TRIVIAL)
    assert ld.lambda_norm_sq == 14
    assert ld.lambda_a == vec(
        Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(3, 2),
        Fraction(3, 2), Fraction(-3, 2), Fraction(-3, 2), Fraction(3, 2),
    )


def test_lambda_highest_pplus_root_frozen():
    ld = lambda_datum((1, 0, 0, 0, 0, 0, 2))
    assert ld.lambda_norm_sq == 21
    assert ld.lambda_a == vec(
        Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(3, 2),
        2, -2, -2, 2,
    )


def test_lambda_in_witness_cone(chambers):
    rng = random.Random(23)
    for _ in range(25):
        mu = random_ktype(rng)
        ld = lambda_datum(mu)
        ch = chambers[ld.witness_chamber]
        assert all(inner(ld.lambda_a, a) >= 0 for a in ch.simples)
        assert ld.lambda_norm_sq == norm_sq(ld.lambda_a)


def test_lambda_fast_agrees():
    rng = random.Random(29)
    for _ in range(30):
        mu = random_ktype(rng)
        assert lambda_norm_sq_fast(mu) == lambda_datum(mu).lambda_norm_sq


@pytest.fixture(scope="module")
def allowable(census, ularge):
    """The chambers where mu + 2 rho_c is dominant, by definition, in
    chamber order, for every K-type of the census and of u-large."""
    return {mu: list(_allowable_chambers(mu)) for mu in sorted(census) + ularge}


def test_witness_walk_against_dominant_rep_and_oracle_chamber(census, ularge, datum, chambers,
                                                              allowable):
    # the walk's c over census and u-large (32966 points), v = mu + 2 rho_c:
    # the zeta-coordinates of the W(G)-dominant representative of v, and
    # v's pairings with the simple roots of the first allowable chamber
    # (dot = 36 <., a^vee> for a root a), each minus 1.  dominant_rep walks
    # by the same lowest-index rule; its reflections number the positive
    # roots pairing negatively with v, all among the 27 noncompact ones
    # (module docstring: v pairs a_i + 2 >= 2 with each compact simple root).
    # The walk's word is dominant_rep's, and the chamber lambda_witness reads
    # off it is the first allowable one.  Of the allowable chambers, the
    # first alone has no descent wall where y = c + 1 is 0, and the height
    # scan finds each point there, with lambda_witness's lambda norm
    assert set(datum.positive_roots) == set(datum.compact_positive) | set(datum.pplus_roots)
    points = sorted(census) + ularge
    assert len(points) == 32966
    scanned, witness = height_witnesses(400)
    assert sorted(scanned) == sorted(points)
    descents = chamber_descents()
    most = 0
    for mu in points:
        walked = []
        c = _witness_c(mu, walked)
        v = add(ktype_ambient(mu), scale(2, datum.rho_c))
        dom, word = dominant_rep(v, "G")
        assert c == [y - 1 for y in from_ambient("zeta", dom)], f"BUG: walk of {mu}"
        assert [i + 1 for i in walked] == list(word), f"BUG: word of {mu}"
        first = allowable[mu][0]
        n, d, j = lambda_witness(mu)
        assert j == first, f"BUG: chamber of {mu}"
        zeros = sum(1 << i for i, x in enumerate(c) if x == -1)
        assert [k for k in allowable[mu] if not descents[k] & zeros] == [first], (
            f"BUG: first-chamber table at {mu}")
        n2, d2, j2 = witness(scanned[mu])
        assert j2 == first and n * d2 == n2 * d, f"BUG: scan witness of {mu}"
        simples = chambers[first].simples
        assert [dot(v, a) for a in simples] == [36 * (x + 1) for x in c], (
            f"BUG: chamber pairings of {mu}")
        negative = sum(dot(v, a) < 0 for a in datum.pplus_roots)
        assert len(word) == negative, f"BUG: reflection count of {mu}"
        most = max(most, negative)
    assert most == 27


def test_lambda_kernel_against_projection_over_census(census, chambers, allowable):
    # the integer kernel against the Fraction cone projection in the first
    # chamber where mu + 2 rho_c is dominant, for every u-small K-type; the
    # first-guess face is the one accepted throughout, as the kernel's
    # docstring states
    assert len(census) == USMALL_CENSUS_SIZE
    for mu in sorted(census):
        j = allowable[mu][0]
        lam = _project_in_chamber(mu, j)
        assert lambda_norm_sq_fast(mu) == norm_sq(lam), f"BUG: lambda norm of {mu}"
        assert _kernel_height(_witness_c(mu)) == inner(lam, scale(2, chambers[j].rho_j)), (
            f"BUG: height of {mu}")
        c = _witness_c(mu)
        face, _, _ = _lambda_kernel(c)
        assert face.members == tuple(i for i in range(7) if c[i] > 0), (
            f"BUG: first-guess face rejected at {mu}")


def test_lambda_kernel_fallback_faces(datum, chambers):
    # random c, mostly far from the first-guess face, against the projection
    # of eta = sum c_i zeta_i onto the base chamber's cone
    rng = random.Random(47)
    d2 = scale(2, datum.rho)
    for _ in range(150):
        c = [rng.randint(-6, 6) for _ in range(7)]
        eta = to_ambient("zeta", c)
        lam = cone_project(eta, chambers[0])
        face, num, r = _lambda_kernel(c)
        x = [Fraction(0)] * 7
        for i, v in zip(face.members, num):
            x[i] = Fraction(v, face.det)
        assert to_ambient("zeta", x) == lam, f"BUG: kernel point at c = {c}"
        assert _kernel_height(c) == inner(lam, d2)


def test_kernel_tables_weyl_invariant(chambers):
    # the Gram matrix and the height steps the kernel uses are those of
    # every chamber's fundamental weights
    gram2 = weight_gram2()
    for ch in chambers:
        for i, zi in enumerate(ch.weights):
            assert inner(zi, scale(2, ch.rho_j)) == height_steps()[i]
            for k, zk in enumerate(ch.weights):
                assert 2 * inner(zi, zk) == gram2[i][k]


def test_scan_weight_coords_against_pairings(datum, chambers):
    # the K-type coordinates of each chamber's weights, as chamber_weights()
    # holds them for the height scan and the chamber images, against the
    # Fraction pairings that define them: integral, with nonnegative e6 part
    table = chamber_weights()
    assert len(table) == len(chambers) == 56
    for ch in chambers:
        for z, row in zip(ch.weights, table[ch.index], strict=True):
            coords = from_ambient("varpi", z)
            want = (tuple(pair_coroot(z, g) for g in datum.compact_simple)
                    + (2 * inner(z, datum.zeta),))
            assert coords == want == row, f"BUG: chamber {ch.index}"
            assert all(type(x) is int for x in row) and min(row[:6]) >= 0
    assert sum(map(sum, weight_gram2())) == 2 * norm_sq(datum.rho)


# ---- spin ----


def test_spin_frozen_values():
    assert spin_datum(TRIVIAL).spin_norm_sq == Fraction(399, 2)
    assert spin_datum((0, 0, 0, 0, 0, 0, -12)).spin_norm_sq == Fraction(231, 2)
    assert spin_datum((0, 0, 0, 0, 0, 0, -24)).spin_norm_sq == Fraction(159, 2)


def test_spin_trivial_all_chambers_achieve(datum):
    sd = spin_datum(TRIVIAL)
    assert sd.achieving_chambers == frozenset(range(56))
    # each PRV weight shifted by rho_c lies in the rho orbit
    for j, coords in sd.prv_weights.items():
        v = add(ktype_ambient(coords), datum.rho_c)
        dom, _ = dominant_rep(v, "G")
        assert dom == datum.rho, f"BUG: chamber {j} PRV weight leaves the rho orbit"


def test_spin_kernel_agrees_with_definition():
    rng = random.Random(31)
    for _ in range(40):
        mu = random_ktype(rng)
        assert Fraction(spin_sq12(mu), 12) == spin_datum(mu).spin_norm_sq


def test_spin_weights_kernel_agrees_with_definition(table_rows, fixture_dir):
    # every spin LKT of the 40 table lines and every K-type of the branching
    branch = parse_fixture("branching", (fixture_dir / "branching_2969.txt").read_text())
    ktypes = {mu for row in table_rows for mu in row.spin_lkts}
    ktypes |= {b.ktype for b in branch}
    assert len(ktypes) > len(branch)
    for mu in sorted(ktypes):
        sd = spin_datum(mu)
        s12, weights = spin_sq12_with_weights(mu)
        assert Fraction(s12, 12) == sd.spin_norm_sq, f"BUG: spin norm of {mu}"
        assert weights == sd.prv_weights, f"BUG: achieving weights of {mu}"
        assert set(weights) == sd.achieving_chambers


def test_spin_prv_weights_are_k_types():
    rng = random.Random(37)
    for _ in range(10):
        mu = random_ktype(rng)
        sd = spin_datum(mu)
        for coords in sd.prv_weights.values():
            assert is_k_type(coords)


def test_spin_tables_against_fraction_pairings(datum, chambers):
    # the integer tables behind the spin kernel, derived from gram12 and
    # rho_n, against the Fraction pairings that define them
    t = _tables()
    varpi = datum.varpi
    assert t.gram12 == tuple(tuple(12 * inner(a, b) for b in varpi) for a in varpi)
    assert t.rc12 == tuple(12 * inner(w, datum.rho_c) for w in varpi)
    assert sum(t.rc12) == 12 * norm_sq(datum.rho_c) == 936
    units = [tuple(int(i == k) for i in range(7)) for k in range(7)]
    for ch in chambers:
        j, r = ch.index, ch.rho_n_j
        assert t.rho_n[j] == from_ambient("varpi", r)
        assert norm12_ktype(t.rho_n[j]) == 12 * norm_sq(r)
        assert t.rc12_rho_n[j] == 12 * inner(r, datum.rho_c)
        # L_j(mu) - norm12_ktype(mu) = lin_j . mu + k_j is affine in mu, so
        # it is pinned by its values at 0 and the seven unit vectors
        *lin, k = t.spin_bound[j]
        for mu in [TRIVIAL] + units:
            low = 12 * norm_sq(add(sub(ktype_ambient(mu), r), datum.rho_c))
            assert low == norm12_ktype(mu) + sum(map(mul, lin, mu)) + k, f"BUG: chamber {j}"


def test_spin_lemmas_and_their_asserts(datum):
    # the two facts behind the kernel's symmetric bound and its cutoff, by
    # Fraction pairings, and the table-build check that asserts them
    t = _tables()
    assert dominant_rep(neg(datum.rho_c), "K")[0] == datum.rho_c
    assert all(inner(g, datum.rho_c) == 1 for g in datum.compact_simple)
    _check_spin_lemmas(datum.rho_c, t.gamma, t.rc12)
    # -varpi_1 is conjugate to varpi_6 under W(E6), not to varpi_1
    with pytest.raises(AssertionError, match="orbit"):
        _check_spin_lemmas(datum.varpi[0], t.gamma, t.rc12)
    with pytest.raises(AssertionError, match="gamma_1"):
        _check_spin_lemmas(datum.rho_c, t.gamma, (t.rc12[0] + 1,) + t.rc12[1:])


def _plain_spin_by_chamber(mu):
    """Per chamber j, the bound L_j = 12|y + rho_c|^2 for y = mu - rho_n_j,
    the symmetric bound L'_j = L_j + max(0, -48 (y, rho_c)), the value
    v_j = 12|p + rho_c|^2 and the coordinates of p, the K-dominant
    representative of y: every chamber walked, reflecting at the first
    negative coordinate until none is left, and each norm and pairing taken
    from the coordinates (rho_c has K-type coordinates (1, ..., 1, 0))."""
    t = _tables()

    def norm12_shifted(x, g):  # 12|x + rho_c|^2 for x with coordinates (x..., g)
        x = [v + 1 for v in x]
        return sum(map(mul, x, [sum(map(mul, row, x)) for row in t.gram12])) + 2 * g * g

    # s_i(p) = p - p_i gamma_i, on the nonzero entries of the Cartan row
    reflections = [[(k, c) for k, c in enumerate(row[:6]) if c] for row in t.gamma]
    out = []
    for rn in t.rho_n:
        y = [m - r for m, r in zip(mu, rn)]
        p, i = y[:6], 0
        while i < 6:
            if p[i] < 0:
                pi = p[i]
                for k, c in reflections[i]:
                    p[k] -= pi * c
                i = 0
            else:
                i += 1
        low = norm12_shifted(y[:6], y[6])
        y_rho_c12 = sum(v * sum(row) for v, row in zip(y, t.gram12))  # 12 (y, rho_c)
        out.append((low, low + max(0, -4 * y_rho_c12), norm12_shifted(p, y[6]),
                    tuple(p) + (y[6],)))
    return out


def _check_spin_kernel_against_plain_walk(mu):
    """The pruned kernel against every chamber walked: both bounds under
    each chamber value, the value, the achieving chambers with their
    weights (ties included), and the floor verdict on both sides of the
    value."""
    per_chamber = _plain_spin_by_chamber(mu)
    assert all(low <= sharp <= v for low, sharp, v, _ in per_chamber), (
        f"BUG: bound above a value at {mu}")
    s12 = min(v for _, _, v, _ in per_chamber)
    assert spin_sq12(mu) == s12, f"BUG: spin norm of {mu}"
    best, weights = spin_sq12_with_weights(mu)
    assert best == s12
    assert weights == {j: p for j, (_, _, v, p) in enumerate(per_chamber) if v == s12}, (
        f"BUG: achieving chambers of {mu}")
    # no chamber value lies below s12, and the first one below s12 + 1 is s12
    assert spin_sq12(mu, s12) == s12 and spin_sq12(mu, s12 + 1) == s12, (
        f"BUG: floor verdict at {mu}")


def _norm12_by_rows(mu):
    """12 |mu|^2 row by row of gram12: a . gram12 a + 2 g^2."""
    rows = _tables().gram12
    return sum(x * sum(map(mul, row, mu[:6])) for x, row in zip(mu[:6], rows)) + 2 * mu[6] ** 2


def test_spin_kernel_against_plain_walk_on_census_and_ularge(census, ularge):
    # each census member and each u-large K-type up to the property suite's
    # height cap; the unpacked norm12_ktype against the row-by-row form
    assert len(census) == USMALL_CENSUS_SIZE and len(ularge) == 11672
    for mu in sorted(census) + ularge:
        _check_spin_kernel_against_plain_walk(mu)
        assert norm12_ktype(mu) == _norm12_by_rows(mu), f"BUG: 12|mu|^2 of {mu}"


@pytest.fixture(scope="module")
def where_the_bound_bites(table_rows, fixture_dir):
    """Every branching K-type and the g-axis, where y = mu - rho_n_j often
    points against rho_c and L'_j is far above L_j, and every table spin
    LKT: (the bitten set, all of them sorted)."""
    branch = parse_fixture("branching", (fixture_dir / "branching_2969.txt").read_text())
    bitten = {b.ktype for b in branch} | {(0, 0, 0, 0, 0, 0, g) for g in range(-60, 61, 3)}
    return bitten, sorted(bitten | {mu for row in table_rows for mu in row.spin_lkts})


def test_spin_kernel_against_plain_walk_where_the_bound_bites(where_the_bound_bites):
    bitten, points = where_the_bound_bites
    for mu in points:
        _check_spin_kernel_against_plain_walk(mu)
    for mu in bitten:
        assert any(low < sharp for low, sharp, _, _ in _plain_spin_by_chamber(mu)), (
            f"L'_j never exceeds L_j at {mu}")


def test_spin_first_chamber_floor_verdict(where_the_bound_bites):
    # the kernel walks chamber first before all others, for the witness
    # walk's j* and for the chamber of largest value: a floor above v_first
    # returns v_first, a floor at or below the minimum s12 returns s12, and
    # the achieving chambers with ties are those of the plain walk
    _, points = where_the_bound_bites
    below = 0
    for mu in points:
        per_chamber = _plain_spin_by_chamber(mu)
        values = [v for _, _, v, _ in per_chamber]
        s12 = min(values)
        ties = {j: p[:6] for j, (_, _, v, p) in enumerate(per_chamber) if v == s12}
        far = max(range(len(values)), key=values.__getitem__)
        for j in (lambda_witness(mu)[2], far):
            assert spin_sq12(mu, values[j] + 1, j) == values[j], f"BUG: chamber {j} at {mu}"
            assert spin_sq12(mu, s12, j) == spin_sq12(mu, 0, j) == s12, f"BUG: {j} at {mu}"
            best, achievers = norms._spin_walk(mu, 0, True, j)
            assert best == s12 and {k: tuple(p) for k, p in achievers} == ties, (
                f"BUG: ties from chamber {j} at {mu}")
            below += values[j] > s12
    # both sides of the floor are exercised: some first chambers lie above
    # the minimum, so a floor between them takes the early return
    assert below


def test_infchar_norm_sq_against_ambient_norm(table_rows, fixture_dir):
    # the integer form against the norm of the ambient vector, on every nu
    # of the four parameter files, every table row's infinitesimal
    # character, and random vectors mixing ints and Fractions of several
    # denominators, with negative entries; omega is covered in
    # test_screening.py::test_omega_norms_in_window
    paths = sorted(fixture_dir.glob("params_*.txt"))
    vectors = [p.nu for path in paths for p in parse_fixture("params", path.read_text())]
    assert len(paths) == 4 and any(c.denominator > 1 for nu in vectors for c in nu)
    vectors += [row.inf_char for row in table_rows]
    rng = random.Random(53)
    for _ in range(300):
        vectors.append(tuple(
            rng.randint(-9, 9) if rng.random() < 0.4
            else Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 12)))
            for _ in range(7)))
    assert any(type(c) is int for v in vectors for c in v)
    assert any(isinstance(c, Fraction) and c.denominator > 2 and c < 0 for v in vectors for c in v)
    for v in vectors:
        assert infchar_norm_sq(v) == norm_sq(infchar_ambient(v)), f"BUG: norm of {v}"


# ---- u-small ----


def test_usmall_examples():
    assert is_usmall(TRIVIAL)
    assert is_usmall((0, 2, 0, 0, 0, 0, 0))
    assert is_usmall((0, 0, 0, 0, 0, 0, 54)), "BUG: a hull vertex is in the hull"
    assert is_usmall((0, 0, 0, 0, 0, 0, 27))
    assert not is_usmall((0, 0, 0, 0, 0, 0, 57))
    assert not is_usmall((13, 0, 0, 0, 0, 0, -1))


def test_usmall_ball_bound(datum):
    # hull vertices have norm^2 <= 486, so nothing outside that ball is inside
    rng = random.Random(41)
    seen_inside = 0
    for _ in range(60):
        mu = random_ktype(rng, span=3, gspan=8)
        if Fraction(norm12_ktype(mu), 12) > 486:
            assert not is_usmall(mu), f"BUG: {mu} outside the vertex ball but in the hull"
        else:
            seen_inside += 1
    assert seen_inside, "sample never landed in the ball; widen the generator"


def test_usmall_facets_match_plain_lp_on_census_and_ularge(census, ularge, datum, chambers):
    # the facet test against one plain LP per point on the membership
    # system in the zeta basis, set up from the Fraction datum: columns the
    # zeta coordinates of 2 rho_n_j and of the -gamma_i, right-hand side the
    # zeta coordinates of mu, which are linear in (a..f, g) with thirds.
    # The points are the census and the u-large K-types of the height scan;
    # every facet is violated at some of them and tight at others.
    cols = [from_ambient("zeta", scale(2, ch.rho_n_j)) for ch in chambers]
    cols += [from_ambient("zeta", neg(g)) for g in datum.compact_simple]
    assert all(x.denominator == 1 for col in cols for x in col)
    rows = [[int(col[k]) for col in cols] for k in range(7)] + [[1] * 56 + [0] * 6]
    units = [from_ambient("zeta", ktype_ambient([int(i == k) for i in range(7)]))
             for k in range(7)]
    assert all((3 * x).denominator == 1 for u in units for x in u)
    to_zeta3 = [[int(3 * u[k]) for u in units] for k in range(7)]

    facets = usmall_facets()
    violated, tight = set(), set()
    inside = 0
    for mu in sorted(census) + ularge:
        zeta = []
        for row in to_zeta3:
            z, rem = divmod(sum(m * x for m, x in zip(mu, row)), 3)
            assert rem == 0, f"BUG: {mu} has fractional zeta coordinates"
            zeta.append(z)
        got = is_usmall(mu)
        assert got == (lp_solve(rows, zeta + [1]) is not None), (
            f"BUG: facets disagree with the LP at {mu}")
        inside += got
        for k, (u, h) in enumerate(facets):
            v = sum(map(mul, u, mu))
            if v > h:
                violated.add(k)
            elif v == h:
                tight.add(k)
    assert (inside, len(census) + len(ularge) - inside) == (21294, 11672)
    assert violated == tight == set(range(14))


# ---- Dirac inequality ----


def test_dirac_inequality_examples():
    assert dirac_inequality_holds((1, 1, 1, 0, 1, 1, 1), (0, 0, 0, 0, 0, 0, -12)) == "equality"
    assert dirac_inequality_holds((1, 0, 1, 1, 0, 1, 0), (0, 0, 0, 0, 0, 0, -24)) == "strict"
    assert dirac_inequality_holds((1, 1, 1, 1, 1, 1, 1), TRIVIAL) == "equality"


def test_dirac_inequality_violated_case():
    # rho against a K-type of tiny spin norm
    assert dirac_inequality_holds((1, 1, 1, 1, 1, 1, 1), (0, 0, 0, 0, 0, 0, -24)) == "violated"


# ---- heights ----


def test_height_frozen_values():
    assert _kernel_height(_witness_c(TRIVIAL)) == 100
    assert _kernel_height(_witness_c((1, 0, 0, 0, 0, 0, 2))) == 126
    assert _kernel_height(_witness_c((0, 0, 0, 0, 0, 0, 27))) == 188


def test_height_enumeration_small_cap(chambers):
    table = enumerate_by_height(120)
    assert table[TRIVIAL] == 100
    assert (1, 0, 0, 0, 0, 0, 2) not in table
    assert min(table.values()) == 100
    for mu, h in table.items():
        assert is_k_type(mu)
        ld = lambda_datum(mu)
        two_rho = scale(2, chambers[ld.witness_chamber].rho_j)
        assert inner(ld.lambda_a, two_rho) == h, f"BUG: cached height wrong for {mu}"


def _unpruned_scan(cap, datum, chambers):
    """The height scan without pruning: every y of the budget simplex in
    every chamber, heights from the cone projection in the witness chamber."""
    budget_cap = cap + int(2 * norm_sq(datum.rho))
    out = {}
    for ch in chambers:
        steps = [int(inner(z, scale(2, ch.rho_j))) for z in ch.weights]
        # varpi coordinates of each z_i, so mu = sum y_i z_i - 2 rho_c is
        # read off by integer sums
        z_coords = [[int(v) for v in from_ambient("varpi", z)] for z in ch.weights]
        shift = [int(v) for v in from_ambient("varpi", scale(2, datum.rho_c))]

        def walk(i, budget, mu):
            if i == 7:
                if min(mu[:6]) >= 0 and mu not in out:
                    ld = lambda_datum(mu)
                    h = inner(ld.lambda_a, scale(2, chambers[ld.witness_chamber].rho_j))
                    if h <= cap:
                        out[mu] = h
                return
            while budget >= 0:
                walk(i + 1, budget, mu)
                budget -= steps[i]
                mu = tuple(m + z for m, z in zip(mu, z_coords[i]))

        walk(0, budget_cap, tuple(-v for v in shift))
    return out


def test_height_scan_pruning_is_complete(datum, chambers):
    # the pruned scan finds exactly what the full walk of the simplex finds
    assert enumerate_by_height(160) == _unpruned_scan(160, datum, chambers)


def test_count_range_matches_the_cut_child_by_child(chambers):
    # _count_range against the prune cut tested on each child n of the
    # level, on the scan's own tables: each chamber's rows, steps and reach
    # in scan order, and each level's precomputed cuts.  The reference reads
    # (num, den) alone off the reach, never the signs the cuts are split
    # by: the kept counts are contiguous and are the returned interval.  mu
    # and row carry all seven coordinates, as in the scan; the cut reads
    # a_1..a_6 alone, so a random g must not move the interval
    order = scan_order()
    steps = [height_steps()[i] for i in order]
    tables = scan_tables()
    assert len(tables) == len(chambers)
    # the tables themselves: the chamber's rows in scan order, and reach[p]
    # the largest n_{k,p'} / d_{p'} over the levels p' >= p, 0 past the last
    for (rows, reach, cuts), weights in zip(tables, chamber_weights()):
        assert rows == tuple(weights[i] for i in order)
        assert len(reach) == RANK + 1 and len(cuts) == RANK
        for p, level in enumerate(reach):
            for k, (num, den) in enumerate(level):
                want = max((Fraction(row[k], step) for row, step in
                            zip(rows[p:], steps[p:])), default=Fraction(0))
                assert den > 0 and Fraction(num, den) == want, (p, k)
    rng = random.Random(2022)
    empty = inner_lo = inner_hi = 0
    for _ in range(4000):
        rows, reach, cuts = rng.choice(tables)
        p = rng.randrange(RANK)
        low = rng.choice((-40, -8, -2))
        mu = tuple(rng.randint(low, 40) for _ in range(6)) + (rng.randint(-500, 500),)
        budget = rng.randint(0, 800)
        row, step, nxt = rows[p], steps[p], reach[p + 1]
        assert len(row) == 7 and len(nxt) == 6
        kept = []
        for n in range(budget // step + 1):
            a = [x + n * r for x, r in zip(mu[:6], row[:6])]
            left = budget - n * step
            if not any(ak < 0 and ak * den + left * num < 0 for ak, (num, den) in zip(a, nxt)):
                kept.append(n)
        got = _count_range(mu, budget, step, cuts[p])
        if not kept:
            assert got is None, f"BUG: {got} for an empty level"
            empty += 1
            continue
        assert kept == list(range(kept[0], kept[-1] + 1)), f"BUG: kept counts {kept}"
        assert got == (kept[0], kept[-1]), f"BUG: {got} for kept counts {kept}"
        inner_lo += kept[0] > 0
        inner_hi += kept[-1] < budget // step
    # every kind of interval is exercised: empty, cut below, cut above
    assert min(empty, inner_lo, inner_hi) >= 50, (empty, inner_lo, inner_hi)


def test_scan_heights_on_both_paths_match_the_projection(chambers):
    # the scan fixes the levels by descending height step
    steps = height_steps()
    assert scan_order() == tuple(sorted(range(RANK), key=lambda i: -steps[i]))
    # a point whose witness walk has some c_i < 0 takes its height from
    # _lambda_kernel, which gets c in index order while the scan keeps y in
    # scan order; a point with c >= 0 takes it from the spent budget.  A
    # seeded sample of each against (lambda_a, 2 rho_j) by definition
    table = enumerate_by_height(320)
    kernel, budget = [], []
    for mu in sorted(table):
        (kernel if min(_witness_c(mu)) < 0 else budget).append(mu)
    rng = random.Random(320)
    for mu in rng.sample(kernel, 100) + rng.sample(budget, 100):
        ld = lambda_datum(mu)
        two_rho = scale(2, chambers[ld.witness_chamber].rho_j)
        assert inner(ld.lambda_a, two_rho) == table[mu], f"BUG: scan height wrong for {mu}"


def test_first_chamber_table_by_definition(datum, chambers):
    # the chambers as a graph: chamber j's neighbour across wall i has rho
    # = rho_j - w_j(alpha_i), and is one of the 56 iff the wall's root is
    # noncompact (224 of the 392 walls are compact).  For each of the 128
    # wall sets Z, the classes under the walls in Z, swept in chamber
    # order: chamber j is the least of its class iff Z holds none of its
    # chamber_descents(), the walls to a lower-numbered neighbour
    index = {ch.rho_j: ch.index for ch in chambers}
    nbr = [[index.get(sub(ch.rho_j, a)) for a in ch.simples] for ch in chambers]
    compact = [[dot(a, datum.zeta) == 0 for a in ch.simples] for ch in chambers]
    assert all((k is None) == flat for row, flats in zip(nbr, compact)
               for k, flat in zip(row, flats))
    assert sum(map(sum, compact)) == 224
    descents = chamber_descents()
    assert descents == tuple(sum(1 << i for i, k in enumerate(row) if k is not None and k < j)
                             for j, row in enumerate(nbr))
    for walls in range(1 << RANK):
        seen, least = set(), []
        for j in range(len(chambers)):
            if j in seen:
                continue
            least.append(j)
            seen.add(j)
            todo = [j]
            while todo:
                for i, k in enumerate(nbr[todo.pop()]):
                    if walls >> i & 1 and k is not None and k not in seen:
                        seen.add(k)
                        todo.append(k)
        assert least == [j for j in range(len(chambers)) if not descents[j] & walls], walls


def test_height_scan_work_at_cap_320(monkeypatch):
    # the scan's inner nodes, one _count_range call each, and its leaves:
    # the counts of the last level's intervals, the one level whose step is
    # the smallest (scan_order asserts the steps distinct).  In index order
    # the scan makes 19053 calls for the same 7806 leaves
    count_range = norms._count_range
    last = height_steps()[scan_order()[-1]]
    calls = leaves = 0

    def counting(mu, budget, step, cuts):
        nonlocal calls, leaves
        span = count_range(mu, budget, step, cuts)
        calls += 1
        if step == last and span is not None:
            leaves += span[1] - span[0] + 1
        return span

    monkeypatch.setattr(norms, "_count_range", counting)
    assert len(enumerate_by_height(320)) == 7682
    assert (calls, leaves) == (9706, 7806)


def test_height_scan_measures_each_ktype_once(monkeypatch, datum):
    # every _kernel_height call of the scan at cap 320, mapped back to its
    # K-type by the chamber being scanned: mu + 2 rho_c = sum (c_i + 1) z_i;
    # no K-type is measured twice, and no y either
    scanning = []

    def chambers():
        for ch in enumerate_chambers():
            scanning.append(ch)
            yield ch

    measured = {}
    seen_y = set()

    def kernel_height(c):
        y = [v + 1 for v in c]
        assert tuple(y) not in seen_y, f"BUG: y = {y} measured twice"
        seen_y.add(tuple(y))
        total = ZERO
        for yi, z in zip(y, scanning[-1].weights):
            total = add(total, scale(yi, z))
        mu = from_ambient("varpi", sub(total, scale(2, datum.rho_c)))
        assert mu not in measured, f"BUG: {mu} measured twice"
        measured[mu] = _kernel_height(c)
        return measured[mu]

    # the chamber table is built before the patch, so that the chambers
    # seen are the scan's own, also when this test runs alone
    chamber_weights()
    monkeypatch.setattr(norms, "enumerate_chambers", chambers)
    monkeypatch.setattr(norms, "_kernel_height", kernel_height)
    table = enumerate_by_height(320)
    assert len(scanning) == 56
    over = {mu for mu, h in measured.items() if h > 320}
    assert over and all(table[mu] == h for mu, h in measured.items() if mu not in over)
    assert not over & set(table)


def test_height_enumeration_nested_caps():
    small = enumerate_by_height(110)
    bigger = enumerate_by_height(130)
    assert set(small) <= set(bigger)
    for mu, h in small.items():
        assert bigger[mu] == h


# ---- cross-cutting symmetry ----


@settings(max_examples=40, deadline=None)
@given(ktype_strategy)
def test_contragredient_invariance(mu):
    dual = contragredient(mu)
    assert spin_sq12(mu) == spin_sq12(dual)
    assert lambda_norm_sq_fast(mu) == lambda_norm_sq_fast(dual)
    assert is_usmall(mu) == is_usmall(dual)
