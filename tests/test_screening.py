import random
from fractions import Fraction
from itertools import count, product
from math import isqrt

import pytest

from e7dirac import criteria
from e7dirac.norms import (
    _tables,
    dirac_inequality_holds,
    infchar_ambient,
    infchar_norm_sq,
    is_usmall,
    ktype_ambient,
    lambda_norm_sq_fast,
    lambda_witness,
    norm12_ktype,
    spin_sq12,
    usmall_facets,
)
from e7dirac.screening import (
    ADMISSIBILITY_SUMS,
    NU_BOUND,
    OMEGA_WINDOW,
    _census_scan,
    _root,
    dirac_candidate_gammas,
    dirac_index_no_cancellation,
    hp_admissible,
    quadratic_points,
    spin_lkts,
)
from e7dirac.structure import (
    add,
    build_root_datum,
    contragredient,
    from_ambient,
    inner,
    norm_sq,
    reflect,
    scale,
    sub,
)
from e7dirac.weyl import dominant_rep, enumerate_chambers

from frozen_values import CERTS_KTYPES, HD_TWELVE, PHI_COEFF_ONE
from oracles import apply_word, lemma32_witness

TRIVIAL = (0, 0, 0, 0, 0, 0, 0)
RHO = (1, 1, 1, 1, 1, 1, 1)


# ---- admissibility ----


def test_admissibility_sums_shape():
    assert len(ADMISSIBILITY_SUMS) == 16
    assert sum(1 for s in ADMISSIBILITY_SUMS if len(s) == 2) == 6
    assert sum(1 for s in ADMISSIBILITY_SUMS if len(s) == 3) == 10


def test_hp_admissible_examples():
    assert hp_admissible(RHO)
    assert not hp_admissible((0, 1, 0, 1, 1, 1, 1)), "BUG: first pair sum vanishes"
    assert hp_admissible((0, 1, 1, 0, 1, 1, 1))


def test_hp_admissible_rejects_bad_coordinates():
    assert not hp_admissible((1, 1, 1, 1, 1, 1, -1))
    assert not hp_admissible((1, 1, 1, 1, 1, 1, Fraction(1, 2)))


def test_hp_admissible_zeroed_sum_always_fails():
    for sel in ADMISSIBILITY_SUMS:
        lam = [1] * 7
        for i in sel:
            lam[i] = 0
        assert not hp_admissible(tuple(lam)), f"BUG: sum {sel} vanishes yet admissible"


def test_hp_admissible_unit_window_chars():
    for lam in PHI_COEFF_ONE:
        assert hp_admissible(lam), f"BUG: {lam} should be admissible"


def test_lemma32_witness_examples():
    assert lemma32_witness((0, 1, 0, 1, 1, 1, 1))
    assert lemma32_witness((0, 2, 0, 3, 1, 2, 1))


def test_lemma32_witness_preconditions():
    with pytest.raises(ValueError):
        lemma32_witness(RHO)
    with pytest.raises(ValueError):
        lemma32_witness((0, 1, 0, 1, 1, 1, -1))
    with pytest.raises(ValueError):
        lemma32_witness((0, 0, 0, 1, 1, 1, 1), (0, 1))


def test_lemma32_witness_all_selectors():
    # the vanishing mechanism behind the positivity of every one of the
    # sixteen sums: zero out a sum's coordinates and every coset image
    # acquires a zero among the first six weight coordinates
    rng = random.Random(7)
    for sel in ADMISSIBILITY_SUMS:
        for _ in range(4):
            lam = [rng.randrange(0, 4) for _ in range(7)]
            for i in sel:
                lam[i] = 0
            assert lemma32_witness(tuple(lam), sel), f"BUG: no zero for {sel}, {lam}"


# ---- u-small census ----


def _reference_candidates():
    """The census by the per-point tests: every K-type of the scan, every g
    in its residue class, each of the 14 facets tested on its own.  No
    slack is carried and no g-interval is formed.  The norm ball of the
    vertices, 12|mu|^2 <= 12 max |2 rho_n_j|^2, holds the hull, so it ends
    each a-loop and bounds |g| by isqrt(ball12 / 2)."""
    t = _tables()
    gram12 = t.gram12
    facets = usmall_facets()
    ball12 = 4 * max(map(norm12_ktype, t.rho_n))
    g_max = isqrt(ball12 // 2)
    out = []
    stack_a = [0] * 6

    def scan(i, norm_acc):
        if i == 6:
            base = (
                2 * stack_a[0] + 3 * stack_a[1] + 4 * stack_a[2]
                + 6 * stack_a[3] + 5 * stack_a[4] + 4 * stack_a[5]
            ) % 3
            g = -g_max + ((base + g_max) % 3)
            while g <= g_max:
                mu = tuple(stack_a) + (g,)
                if norm_acc + 2 * g * g <= ball12 and all(
                        sum(x * y for x, y in zip(u, mu)) <= h for u, h in facets):
                    out.append(mu)
                g += 3
            return
        for a in count():
            stack_a[i] = a
            row = gram12[i]
            acc = norm_acc + a * (2 * sum(row[k] * stack_a[k] for k in range(i)) + row[i] * a)
            if acc > ball12:
                break
            scan(i + 1, acc)
        stack_a[i] = 0

    scan(0, 0)
    del scan
    return out


def test_census_candidates_match_per_point_reference():
    # soundness of the monotone pruning and of the leaf g-interval: the same
    # u-small K-types, element for element and in the same order
    got = _census_scan()
    want = _reference_candidates()
    assert len(want) == criteria.USMALL_CENSUS_SIZE == 21294
    assert got == want, "BUG: the pruned scan changes the census"


def _support(direction):
    """The hull's support function by definition: the best Fraction pairing
    of the direction's K-dominant representative with the vertices
    2 rho_n_j."""
    dom, _ = dominant_rep(direction, "K")
    return max(inner(tuple(2 * x for x in ch.rho_n_j), dom) for ch in enumerate_chambers())


def _affine_rank(points):
    """The rank of the points lifted to (1, p), by Fraction elimination."""
    rows = [[Fraction(1), *map(Fraction, p)] for p in points]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_usmall_facets_against_support_function():
    # each facet u . mu <= h, read as the ambient direction U with
    # (mu, U) = u . mu: h is the hull's support value at U, and the
    # vertices where it is attained span a hyperplane, so the inequality
    # is a facet and not only valid
    d = build_root_datum()
    units = [ktype_ambient(tuple(int(i == k) for i in range(7))) for k in range(7)]
    vertices = [tuple(2 * x for x in r) for r in _tables().rho_n]
    facets = usmall_facets()
    assert len(set(facets)) == 14
    for u, h in facets:
        direction = scale(2 * u[6], d.zeta)
        for k, g in enumerate(d.compact_simple):
            direction = add(direction, scale(u[k], g))
        assert [inner(e, direction) for e in units] == list(u)
        assert h == _support(direction), f"BUG: facet {u} is not the support value"
        on_facet = [v for v in vertices if sum(x * y for x, y in zip(u, v)) == h]
        assert _affine_rank(on_facet) == 7, f"BUG: {u} . mu <= {h} is not a facet"


def test_census_candidates_within_support_caps():
    # the scan has no coordinate cap and no g-range of its own: the facets
    # keep every member within the hull's maxima of each coordinate,
    # a_i = (mu, gamma_i) and g = 2 (mu, zeta)
    d = build_root_datum()
    caps = {_support(g) for g in d.compact_simple}
    assert caps == {12}
    g_lo, g_hi = -2 * _support(tuple(-x for x in d.zeta)), 2 * _support(d.zeta)
    assert (g_lo, g_hi) == (-54, 54)
    for mu in _census_scan():
        assert max(mu[:6]) <= 12 and g_lo <= mu[6] <= g_hi, f"BUG: {mu} beyond the hull's caps"


def test_census_count(census):
    assert len(census) == criteria.USMALL_CENSUS_SIZE, f"BUG: census has {len(census)} members"


def test_census_contains_trivial_and_certs(census):
    assert TRIVIAL in census
    missing = CERTS_KTYPES - census
    assert not missing, f"BUG: certificate K-types outside the census: {missing}"


def test_census_members_are_k_types_in_ball(census):
    for mu in census:
        assert min(mu[:6]) >= 0
        assert norm12_ktype(mu) <= 5832, f"BUG: {mu} beyond the vertex ball"


def test_census_closed_under_contragredient(census):
    rng = random.Random(11)
    for mu in rng.sample(sorted(census), 300):
        assert contragredient(mu) in census, f"BUG: contragredient of {mu} missing"


# ---- certificates ----


def test_certs_match_frozen_list(certs):
    assert {e.ktype for e in certs} == CERTS_KTYPES


def test_certs_entry_invariants(certs):
    for e in certs:
        assert e.gap >= NU_BOUND
        assert 14 <= e.lambda_norm_sq <= 49
        assert is_usmall(e.ktype)


def test_certs_gap_recomputes(certs):
    rng = random.Random(13)
    for e in rng.sample(sorted(certs, key=lambda x: x.ktype), 10):
        spin = Fraction(spin_sq12(e.ktype), 12)
        assert spin - lambda_norm_sq_fast(e.ktype) == e.gap


def test_certs_closed_under_contragredient(certs):
    ktypes = {e.ktype for e in certs}
    for mu in ktypes:
        assert contragredient(mu) in ktypes


def test_certs_floor_path_matches_exact_spin(census, certs):
    # compute_certs rejects most members by a chamber value under the
    # floor; the exact spin norm on every census member gives the same
    # K-types with the same gaps and lambda norms
    exact = {}
    for mu in census:
        lam = lambda_norm_sq_fast(mu)
        gap = Fraction(spin_sq12(mu), 12) - lam
        if gap >= NU_BOUND:
            exact[mu] = (gap, lam)
    assert len(exact) == criteria.CERT_COUNT
    assert {e.ktype: (e.gap, e.lambda_norm_sq) for e in certs} == exact


def test_ularge_gap_floor_path_matches_exact_spin(ularge):
    # ularge_gap_bounded answers by a chamber value under its floor, walking
    # first the j* of the witness walk that gives lambda, as the property
    # suite does; on every u-large K-type of the property suite's scan it
    # agrees with the exact gap, also when lambda is moved so that the gap
    # lands on the bound or 1/12 or 1/24 past it
    bound = criteria.ULARGE_GAP_MAX
    gaps = []
    for mu in ularge:
        n, d, first = lambda_witness(mu)
        lam = Fraction(n, d)
        spin = Fraction(spin_sq12(mu), 12)
        gaps.append(spin - lam)
        assert criteria.ularge_gap_bounded(mu, lam, first) == (spin - lam <= bound), mu
        assert criteria.ularge_gap_bounded(mu, spin - bound, first)
        for past in (Fraction(1, 12), Fraction(1, 24)):
            assert not criteria.ularge_gap_bounded(mu, spin - bound - past, first), mu
    assert 0 < max(gaps) <= bound


# ---- the norm-window characters ----


def test_closed_form_root():
    # _root(a, b, r) is the largest x >= 0 with x (b + a x) <= r, and
    # _root(a, b, t - 1) + 1 the least x with x (b + a x) >= t, the bound
    # quadratic_points takes for lo; random cases, r = 0, and r making
    # b^2 + 4 a r a perfect square (x (b + a x) == r exactly)
    f = lambda a, b, x: x * (b + a * x)
    rng = random.Random(17)
    cases = [(rng.randint(1, 60), rng.randint(0, 400), rng.randint(0, 10 ** 6))
             for _ in range(3000)]
    cases += [(a, b, 0) for a in range(1, 8) for b in range(0, 30)]
    cases += [(a, b, f(a, b, x) + d) for a in range(1, 6) for b in range(0, 12)
              for x in range(0, 40) for d in (-1, 0, 1) if f(a, b, x) + d >= 0]
    for a, b, r in cases:
        x = _root(a, b, r)
        assert x >= 0 and f(a, b, x) <= r < f(a, b, x + 1), (a, b, r)
        least = _root(a, b, r - 1) + 1 if r > 0 else 0
        assert f(a, b, least) >= r and (least == 0 or f(a, b, least - 1) < r), (a, b, r)
    assert _root(1, 0, 0) == 0 and _root(1, 0, 10 ** 40) == 10 ** 20


def test_joint_scan_is_union_of_single_form_scans():
    # lemma 3 of quadratic_points on random small forms: the joint scan is
    # the sorted union of the single-form scans, filed by largest
    # coordinate, each part in lexicographic order; a single form's lower
    # bound keeps the points of its lo = 0 scan with value >= lo
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randint(2, 5)
        forms = []
        for _ in range(rng.randint(1, 5)):
            q = [[0] * n for _ in range(n)]
            for i in range(n):
                q[i][i] = rng.randint(1, 3)
                for k in range(i):
                    q[i][k] = q[k][i] = rng.randint(0, 3)
            forms.append(tuple(map(tuple, q)))
        hi = rng.randint(0, 60)
        patterns = None
        if rng.random() < 0.5:
            every = list(product((True, False), repeat=n))
            patterns = set(rng.sample(every, rng.randint(0, len(every))))
        value = lambda q, c: sum(q[i][k] * c[i] * c[k] for i in range(n) for k in range(n))
        points, groups = quadratic_points(forms, 0, hi, patterns)
        singles = [quadratic_points((q,), 0, hi, patterns) for q in forms]
        assert points == sorted(set().union(*(single for single, _ in singles)))
        assert all(min(value(q, c) for q in forms) <= hi for c in points)
        assert patterns is None or all(tuple(not x for x in c) in patterns for c in points)
        regrouped = {}
        for c in points:
            regrouped.setdefault(max(c), []).append(c)
        assert groups == regrouped and list(groups) == sorted(groups)
        assert all(part == sorted(part) for part in groups.values())
        lo = rng.randint(1, hi + 1)
        assert quadratic_points(forms[:1], lo, hi, patterns)[0] == \
            [c for c in singles[0][0] if value(forms[0], c) >= lo]
        if len(forms) > 1:
            with pytest.raises(AssertionError, match="one form only"):
                quadratic_points(forms[:2], lo, hi, patterns)


def test_omega_window_comes_from_the_certificates(certs):
    # the least lambda norm plus NU_BOUND (14 + 94) and the largest lambda
    # norm plus the largest gap (49 + 371/2); every certificate's spin norm
    # lambda + gap lies in the window
    lams = [e.lambda_norm_sq for e in certs]
    assert OMEGA_WINDOW == (min(lams) + NU_BOUND, max(lams) + max(e.gap for e in certs)) \
        == (Fraction(108), Fraction(469, 2))
    assert all(OMEGA_WINDOW[0] <= e.lambda_norm_sq + e.gap <= OMEGA_WINDOW[1] for e in certs)


def test_omega_count(omega):
    assert len(omega) == criteria.OMEGA_SIZE, f"BUG: window has {len(omega)} characters"


def test_omega_membership_examples(omega):
    assert RHO in omega
    assert TRIVIAL not in omega


def test_omega_norms_in_window(omega):
    for lam in omega:
        n = norm_sq(infchar_ambient(lam))
        assert Fraction(108) <= n <= Fraction(469, 2), f"BUG: {lam} outside window"
        assert infchar_norm_sq(lam) == n, f"BUG: integer norm of {lam}"
        assert all(c >= 0 for c in lam)


# ---- Dirac-cohomology candidates ----


def test_candidates_at_rho_are_chamber_vectors():
    gammas = dirac_candidate_gammas(RHO)
    assert len(gammas) == 56
    expected = {
        tuple(int(c) for c in from_ambient("varpi", ch.rho_n_j))
        for ch in enumerate_chambers()
    }
    assert set(gammas) == expected
    assert (0, 0, 0, 0, 0, 0, 27) in gammas
    assert (0, 0, 0, 0, 0, 1, 25) in gammas


def test_candidates_scalar_module_pair():
    gammas = dirac_candidate_gammas((1, 1, 1, 0, 1, 0, 1))
    assert (0, 0, 0, 0, 0, 0, 3) in gammas
    assert (0, 0, 0, 0, 0, 0, -3) in gammas


def test_candidates_cover_hd_twelve():
    gammas = dirac_candidate_gammas((1, 1, 1, 0, 1, 1, 1))
    missing = HD_TWELVE - set(gammas)
    assert not missing, f"BUG: candidate set misses {missing}"


def _ambient_candidates(lam):
    """The candidate set by its ambient construction: each chamber's word
    applied to the W(G)-dominant point of Lambda, minus rho_c, kept when
    K-dominant, with the first chamber that gives it as its witness."""
    d = build_root_datum()
    dom, _ = dominant_rep(infchar_ambient(lam), "G")
    gammas = {}
    for ch in enumerate_chambers():
        gamma = sub(apply_word(ch.word, dom), d.rho_c)
        if all(inner(gamma, g) >= 0 for g in d.compact_simple):
            gammas.setdefault(from_ambient("varpi", gamma), ch.index)
    return gammas


def _moved_off_dominant(lam, rng):
    """lam after three simple reflections in the ambient space, each at an
    i with lam_i > 0 at that step: each adds alpha_i to the positive roots
    pairing negatively with lam, so the result is not dominant."""
    d = build_root_datum()
    for _ in range(3):
        i = rng.choice([i for i, c in enumerate(lam) if c > 0])
        lam = from_ambient("zeta", reflect(infchar_ambient(lam), d.simple_roots[i]))
    return lam


def test_candidates_conjugate_back_to_character(table_rows):
    # the table-read candidate set against the ambient construction, keys,
    # witnesses and insertion order, for rho, every table character and
    # every character in {0,1}^7 (empty for some, such as 0); then for
    # non-dominant characters (rho and the table characters moved off the
    # dominant chamber, and a sample of {-1,0,1}^7), where the set must
    # also be that of the character's dominant point; and each candidate
    # plus rho_c conjugate back to the character on a few of them
    d = build_root_datum()
    dominant = [RHO, *(row.inf_char for row in table_rows)]
    chars = [*dominant, *product((0, 1), repeat=7)]
    assert len(chars) == 1 + 40 + 128
    rng = random.Random(24)
    moved = [_moved_off_dominant(lam, rng) for lam in dominant]
    assert all(min(lam) < 0 for lam in moved)
    sampled = rng.sample(list(product((-1, 0, 1), repeat=7)), 100)
    sizes = []
    for lam in chars + moved + sampled:
        gammas = dirac_candidate_gammas(lam)
        assert list(gammas.items()) == list(_ambient_candidates(lam).items()), lam
        sizes.append(len(gammas))
    assert 0 in sizes and max(sizes) == 56
    for lam, base in zip(moved + sampled, dominant + [None] * len(sampled)):
        dom = from_ambient("zeta", dominant_rep(infchar_ambient(lam), "G")[0])
        assert base is None or dom == tuple(base), (lam, base)
        got = list(dirac_candidate_gammas(lam).items())
        assert got == list(dirac_candidate_gammas(dom).items()), lam
    for lam in (RHO, (1, 1, 1, 0, 1, 0, 1), (1, 0, 1, 1, 0, 1, 0)):
        gammas = dirac_candidate_gammas(lam)
        assert 0 < len(gammas) <= 56
        target, _ = dominant_rep(infchar_ambient(lam), "G")
        for coords in gammas:
            v = tuple(a + b for a, b in zip(ktype_ambient(coords), d.rho_c))
            back, _ = dominant_rep(v, "G")
            assert back == target, f"BUG: {coords}+rho_c leaves the orbit"


# ---- spin LKTs ----


def test_spin_lkts_scalar_chain():
    ktypes = [((0, 0, 0, 0, 0, n, -12 - 2 * n), 1) for n in range(21)]
    min_spin, achievers, hd = spin_lkts(ktypes, (1, 1, 1, 0, 1, 1, 1))
    assert min_spin == Fraction(231, 2)
    assert [mu for mu, _ in achievers] == [(0, 0, 0, 0, 0, n, -12 - 2 * n) for n in range(6)]
    assert hd


def test_spin_lkts_two_member_module():
    ktypes = [((0, 0, 0, 0, 0, 0, -24), 1), ((1, 0, 0, 0, 0, 0, -28), 1)]
    min_spin, achievers, hd = spin_lkts(ktypes, (1, 1, 1, 0, 1, 0, 1))
    assert min_spin == Fraction(159, 2)
    assert len(achievers) == 2
    assert hd


def test_spin_lkts_trivial_at_rho():
    min_spin, achievers, hd = spin_lkts([(TRIVIAL, 1)], RHO)
    assert min_spin == Fraction(399, 2)
    assert hd


def test_spin_lkts_empty_errors():
    with pytest.raises(ValueError):
        spin_lkts([], RHO)


def test_spin_lkts_hd_achievers_hit_equality():
    ktypes = [((0, 0, 0, 0, 0, n, -12 - 2 * n), 1) for n in range(21)]
    lam = (1, 1, 1, 0, 1, 1, 1)
    _, achievers, hd = spin_lkts(ktypes, lam)
    assert hd
    for mu, _ in achievers:
        assert dirac_inequality_holds(lam, mu) == "equality"


# ---- index parity ----


def test_index_parity_triple():
    d = build_root_datum()
    lkt = (0, 0, 0, 0, 0, 0, 3)
    spins = [(0, 0, 0, 0, 0, 1, 25), (4, 0, 0, 0, 0, 1, 9), (0, 0, 0, 0, 0, 5, -7)]
    vals = [
        inner(sub(ktype_ambient(mu), ktype_ambient(lkt)), d.zeta) for mu in spins
    ]
    assert [abs(v) for v in vals] == [11, 3, 5], f"BUG: pairing values {vals}"
    assert dirac_index_no_cancellation(lkt, spins)


def test_index_parity_singleton():
    assert dirac_index_no_cancellation(TRIVIAL, [(0, 0, 0, 0, 0, 0, 6)])


def test_index_parity_mixed_fails():
    lkt = (0, 0, 0, 0, 0, 0, 3)
    assert not dirac_index_no_cancellation(
        lkt, [(0, 0, 0, 0, 0, 1, 25), (0, 0, 0, 0, 0, 0, 7)]
    )


def test_index_parity_errors():
    with pytest.raises(ValueError):
        dirac_index_no_cancellation(TRIVIAL, [])
    with pytest.raises(ValueError):
        dirac_index_no_cancellation((0, 0, 0, 0, 0, 0, 3), [(0, 0, 0, 0, 0, 1, 4)])
