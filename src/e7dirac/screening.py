"""Enumeration and filtering: admissibility sums, the u-small census, the
high-gap certificate set, the norm-window set of infinitesimal characters,
Dirac-cohomology candidate weights, spin LKT extraction, and the
same-parity index test.

The u-small census is one scan over mu = (a_1..a_6, g), the a-coordinates
depth first and g last, that keeps exactly the K-types passing the 14
facets u . mu <= h of norms.usmall_facets, which decide u-small on
K-types.  The scan carries each facet's slack h - u . mu of the a-prefix
down the recursion.  Two facts make it exact and make it end:

- Monotone pruning.  The facets with u_g == 0 have every u_k > 0 on the
  a-coordinates (asserted in _census_scan), so such a facet exceeded at
  coordinate a is exceeded for every larger a and every descendant: the
  loop breaks there.  Its slack falls with each step of a, so it ends
  every loop.
- Leaf interval.  With the a-part fixed, the g that pass are the integers
  of one interval, the intersection over the facets with u_g != 0 of
  g <= s // u_g when u_g > 0, or g >= -(s // -u_g) when u_g < 0 (s the
  slack, floor division; the second is the ceiling of s / u_g).  Facets
  of both signs exist (asserted), so the interval is bounded.  The leaf
  steps through it by 3 from the first g in the residue class of
  structure.ktype_form, which makes mu a K-type.  Both forms are exact
  integer rewritings of the per-point facet tests, so the scan keeps the
  same points in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product
from math import isqrt
from operator import mul, sub as int_sub

from .norms import (
    chamber_images,
    dominant_zeta,
    infchar_norm_sq,
    lambda_witness,
    spin_sq12,
    usmall_facets,
    weight_gram2,
)
from .structure import ktype_form

# The sixteen positivity sums on a 7-tuple [a..g]: six pairs and ten triples.
ADMISSIBILITY_SUMS: tuple[tuple[int, ...], ...] = (
    (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6),
    (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 3, 5), (0, 3, 6),
    (0, 4, 6), (1, 2, 4), (1, 2, 5), (1, 2, 6), (2, 4, 6),
)


def _naturals(lam) -> list[int] | None:
    """The coordinates as ints when every one is a nonnegative integer,
    else None."""
    vals = []
    for c in lam:
        f = Fraction(c)
        if f.denominator != 1 or f < 0:
            return None
        vals.append(int(f))
    return vals


def hp_admissible(lam) -> bool:
    """Nonnegative integer coordinates with every one of the sixteen
    admissibility sums strictly positive."""
    vals = _naturals(lam)
    return vals is not None and all(sum(vals[i] for i in s) > 0 for s in ADMISSIBILITY_SUMS)


# ---------------------------------------------------------------------------
# u-small census


def _census_scan() -> list[tuple[int, ...]]:
    """Every u-small K-type, in lexicographic order: the K-types that pass
    the facets of norms.usmall_facets.  The facet slacks h - u . mu are
    carried down the scan: a facet without g-part ends the a-loop, and at a
    leaf the admissible g form one integer interval (module docstring)."""
    facets = usmall_facets()
    flat = [f for f in facets if f[0][6] == 0]
    bounds = [f for f in facets if f[0][6] != 0]
    # monotone pruning: the flat facets end every a-loop, and the g-interval
    # of a leaf is bounded on both sides
    assert flat and all(x > 0 for u, _ in flat for x in u[:6]), "BUG: flat facets"
    assert {u[6] > 0 for u, _ in bounds} == {True, False}, "BUG: g unbounded on the hull"
    flat_cols = [tuple(u[i] for u, _ in flat) for i in range(6)]
    bound_cols = [tuple(u[i] for u, _ in bounds) for i in range(6)]
    gs = tuple(u[6] for u, _ in bounds)
    out = []

    def scan(i: int, flat_slack, bound_slack, prefix: tuple):
        # the slacks are h minus the facet sums of the a-prefix
        if i == 6:
            hi = min(s // ug for s, ug in zip(bound_slack, gs) if ug > 0)
            lo = max(-(s // -ug) for s, ug in zip(bound_slack, gs) if ug < 0)
            base = ktype_form(prefix)
            for g in range(lo + (base - lo) % 3, hi + 1, 3):
                out.append(prefix + (g,))
            return
        fcol, bcol = flat_cols[i], bound_cols[i]
        for a in count():
            if min(flat_slack) < 0:
                break
            scan(i + 1, flat_slack, bound_slack, prefix + (a,))
            flat_slack = tuple(map(int_sub, flat_slack, fcol))
            bound_slack = tuple(map(int_sub, bound_slack, bcol))

    scan(0, tuple(h for _, h in flat), tuple(h for _, h in bounds), ())
    del scan  # a self-calling closure is a cycle that would keep `out` alive
    return out


def enumerate_usmall_ktypes() -> set[tuple[int, ...]]:
    """Every K-type inside the orbit hull of the 56 per-chamber sums of
    noncompact positive roots."""
    return set(_census_scan())


# ---------------------------------------------------------------------------
# the certificate set


@dataclass(frozen=True)
class CertsEntry:
    ktype: tuple[int, ...]
    gap: Fraction
    lambda_norm_sq: Fraction


# The sharpened Helgason-Johnson bound |nu|^2 < NU_BOUND (classically
# |nu|^2 <= |rho|^2): the census bound of atlas_ingest and the certificate
# floor.  A lowest K-type carrying the Dirac cohomology at lambda + nu, nu
# orthogonal to lambda, has spin norm |lambda + nu|^2 and lambda norm
# |lambda|^2, so its spin - lambda gap is |nu|^2: the certificates are the
# u-small K-types whose gap does not by itself force |nu|^2 < NU_BOUND.
NU_BOUND = 94


def compute_certs(census: set[tuple[int, ...]]) -> set[CertsEntry]:
    """u-small K-types whose spin norm beats the lambda norm by at least
    NU_BOUND: 12 spin >= floor = ceil(12 (lambda + NU_BOUND)).
    One witness walk gives lambda = n / d and the chamber j* where
    mu + 2 rho_c is dominant (norms.lambda_witness); the floor is
    ceil(12 n / d) + 12 NU_BOUND in integers.  The spin kernel walks j* first
    and stops at the first chamber value below the floor, which rejects
    mu; j* alone rejects nearly every census member.  A result at or above
    the floor is the exact spin norm, which gives the gap; only the kept
    entries build Fractions."""
    out = set()
    for mu in census:
        n, d, first = lambda_witness(mu)
        floor = -(-12 * n // d) + 12 * NU_BOUND
        spin12 = spin_sq12(mu, floor, first)
        if spin12 >= floor:
            lam = Fraction(n, d)
            out.add(CertsEntry(ktype=mu, gap=Fraction(spin12, 12) - lam, lambda_norm_sq=lam))
    return out


# ---------------------------------------------------------------------------
# the norm-window characters


# lo <= |Lambda|^2 <= hi: the least certificate lambda norm plus NU_BOUND
# (14 + 94) and the largest lambda norm plus the largest gap (49 + 371/2),
# so the window holds every certificate's spin norm lambda + gap.
OMEGA_WINDOW = (Fraction(108), Fraction(469, 2))


def _root(a: int, b: int, r: int) -> int:
    """The largest integer x >= 0 with x (b + a x) <= r, for integers
    a > 0, b >= 0, r >= 0.

    It is floor((sqrt(D) - b) / (2 a)) with D = b^2 + 4 a r, the positive
    root of a x^2 + b x - r.  isqrt gives it exactly: for an integer k >= 0,
    sqrt(D) >= 2 a k + b iff isqrt(D) >= 2 a k + b, the right side being a
    nonnegative integer."""
    return (isqrt(b * b + 4 * a * r) - b) // (2 * a)


def quadratic_points(forms, lo: int, hi: int, patterns=None):
    """Every c in N^n with lo <= c^T q c <= hi for at least one q of forms,
    a nonempty sequence of symmetric integer n x n matrices, n >= 2, whose
    zero pattern tuple(map(not_, c)) lies in patterns (every pattern when
    None).  Returns (points, groups): the points in lexicographic order,
    and {largest coordinate: the points with that largest coordinate, in
    lexicographic order}.

    Lemma 1 (monotone scan, prefix closure).  q has nonnegative entries, so
    for c >= 0 the value never decreases when a coordinate grows: setting
    c_i = x after a prefix c' of value v gives v + x (b + q_ii x) with
    b = 2 sum_k q_ik c'_k >= 0, and a later coordinate adds a nonnegative
    amount.  So no completion of a prefix over hi comes back under it, and
    each level runs c_i from 0 up to _root(q_ii, b, hi - v), the largest x
    still within hi.  A point's zero pattern extends the pattern of each of
    its prefixes, so only a prefix whose pattern lies in the prefix closure
    of patterns can lead to a kept point, and whether the closure holds the
    two children of that pattern settles whether c_i = 0 and whether
    c_i > 0 are scanned at all; no dead subtree is entered.  A zero-free
    prefix of length n - 1, say, forces c_{n-1} = 0 when every pattern has
    a zero.

    Lemma 2 (closed-form last coordinate).  With c[:n-1] fixed, of value v,
    the last coordinate y adds y (b + a y), a = q_{n-1,n-1} > 0, b >= 0 as
    above, which is strictly increasing in y >= 0.  So the y with
    lo <= value <= hi are the integers from the least y with
    y (b + a y) >= lo - v, which is _root(a, b, lo - v - 1) + 1 when
    lo > v and 0 otherwise, up to _root(a, b, hi - v).  The level before
    the last steps b by 2 q_{n-1,n-2} as c_{n-2} grows, and appends each
    such run of points in one step.

    Lemma 3 (one scan for the union).  The points of the union are the
    points of a prefix tree that is the union of the forms' trees, so one
    scan visits each point once, in lexicographic order, with no merge.
    Each form carries its own value down; by lemma 1 a form is dead below
    a prefix once c_i passes its top _root(q_ii, b, hi - v), and stays
    dead, so a child carries only the forms live at it, and a level runs
    c_i up to the largest top over them.  With lo <= 0 each form's last
    coordinates are an interval from 0 (lemma 2), so their union is the
    interval up to the largest end, and the zero pattern alone decides
    whether y = 0 and y > 0 are allowed.  With lo > 0 the union of the
    forms' intervals need not be an interval, so a lower bound is taken
    for one form only.  The largest coordinate m of c[:n-1] goes down
    too, so the run c[:n-1] + (y,) is filed as it is found: the y <= m
    have largest coordinate m, and each y > m has y."""
    n = len(forms[0]) if forms else 0
    assert n >= 2, "BUG: quadratic_points scans a form of at least two coordinates"
    for q in forms:
        assert len(q) == n and all(q[i][k] == q[k][i] >= 0 for i in range(n) for k in range(n)), \
            "BUG: quadratic_points needs symmetric nonnegative forms of one size"
        assert all(q[i][i] > 0 for i in range(n)), "BUG: quadratic_points needs a positive diagonal"
    assert lo <= 0 or len(forms) == 1, "BUG: quadratic_points takes lo > 0 for one form only"
    if patterns is None:
        patterns = product((True, False), repeat=n)
    live = {p[:k] for p in patterns for k in range(len(p) + 1)}
    if not live or hi < max(lo, 0):
        return [], {}
    assert all(len(p) <= n for p in live), "BUG: a zero pattern longer than the form"
    # (c_i = 0 can lead to a kept point, c_i > 0 can) for each live prefix
    kids = {p: (p + (True,) in live, p + (False,) in live) for p in live if len(p) < n}
    assert all(zero_ok or pos_ok for zero_ok, pos_ok in kids.values()), \
        "BUG: a zero pattern shorter than the form"
    ends = {p: (kids.get(p + (True,)), kids.get(p + (False,))) for p in live if len(p) == n - 2}
    width = hi - lo
    out = []
    # a coordinate y of a point has q_ii y^2 <= hi
    groups = [[] for _ in range(max(_root(q[i][i], 0, hi) for q in forms for i in range(n)) + 1)]
    singles = [(y,) for y in range(len(groups))]

    def scan(i: int, prefix: tuple, pat: tuple, m: int, up: list, x_up: int):
        # up = (top, f, value, cross, q_ii) at the parent for each form live
        # there, f = (q, 4 a, 2 a, db) with a = q_{n-1,n-1} and
        # db = 2 q_{n-1,n-2} (lemma 2), x_up = c_{i-1}, m = max(prefix,
        # default=0): a form stays live while x_up <= top (lemma 1), and
        # c_i = x adds x (cross + q_ii x), within hi up to the form's top
        zero_ok, pos_ok = kids[pat]
        tops = []
        x_top = 0
        for top, f, acc, cross, qii in up:
            if top >= x_up:
                acc += x_up * (cross + qii * x_up)
                row = f[0][i]
                cross = 2 * sum(map(mul, row, prefix))
                qii = row[i]
                top = (isqrt(cross * cross + 4 * qii * (hi - acc)) - cross) // (2 * qii) if pos_ok else 0
                if top > x_top:
                    x_top = top
                if i < n - 2:
                    tops.append((top, f, acc, cross, qii))
                else:  # y adds y (yb + a y), yb = b + db x, to the value hi - r of c[:n-1]
                    q, a4, a2, db = f
                    tops.append((top, hi - acc, cross, qii, a4, a2, db, 2 * sum(map(mul, q[n - 1], prefix))))
        xs = range(0 if zero_ok else 1, x_top + 1)
        if i < n - 2:
            for x in xs:
                scan(i + 1, prefix + (x,), pat + (not x,), x if x > m else m, tops, x)
            return
        # the level before the last: the y = c_{n-1} within hi run up to the
        # largest closed-form root over the forms live at x (lemmas 2, 3)
        at_zero, at_pos = ends[pat]
        for x in xs:
            y_zero, y_pos = at_pos if x else at_zero
            y_lo, y_hi = 0 if y_zero else 1, 0
            for top, r, cross, qii, a4, a2, db, b in tops:
                if x <= top:
                    yb = b + db * x
                    r -= x * (cross + qii * x)  # hi - value of c[:n-1], within hi
                    y = (isqrt(yb * yb + a4 * r) - yb) // a2 if y_pos else 0
                    if y > y_hi:
                        y_hi = y
                    if r > width:  # the value is under lo > 0, so this is the one form
                        y_lo = (isqrt(yb * yb + a4 * (r - width - 1)) - yb) // a2 + 1
            if y_lo > y_hi:
                continue
            if y_lo == y_hi:
                pts = [prefix + (x, y_lo)]
            else:
                pts = list(map((prefix + (x,)).__add__, singles[y_lo:y_hi + 1]))
            out.extend(pts)
            # file by the largest coordinate: mx for the y <= mx, y itself above
            mx = x if x > m else m
            if y_hi <= mx:
                groups[mx] += pts
            else:
                k = max(mx + 1 - y_lo, 0)
                groups[mx] += pts[:k]
                for pt in pts[k:]:
                    groups[pt[-1]].append(pt)

    scan(0, (), (), 0, [(0, (q, 4 * q[n - 1][n - 1], 2 * q[n - 1][n - 1], 2 * q[n - 1][n - 2]), 0, 0, 0)
                        for q in forms], 0)
    del scan  # a self-calling closure is a cycle that would keep `out` alive
    return out, {k: g for k, g in enumerate(groups) if g}


def enumerate_omega() -> set[tuple[int, ...]]:
    """Dominant integral characters (nonnegative integer coordinates in the
    fundamental-weight basis) with squared norm in OMEGA_WINDOW: the points
    of H = weight_gram2, which holds twice the norms, from the ceiling of
    twice its lower end to the floor of twice its upper end."""
    lo, hi = OMEGA_WINDOW
    return set(quadratic_points((weight_gram2(),), -(-2 * lo // 1), 2 * hi // 1)[0])


# ---------------------------------------------------------------------------
# Dirac-cohomology candidates


def dirac_candidate_gammas(lam) -> dict[tuple, int]:
    """The K-dominant weights w_j(Lambda_dom) - rho_c, in K-type
    coordinates, each mapped to the first chamber j giving it; Lambda_dom
    is the W(G)-dominant point of Lambda, w_j(Lambda_dom) a chamber image.

    Lemma.  A K-dominant p has p + rho_c in W(G) Lambda iff p is in this
    set ("if" is clear).  For "only if": x = p + rho_c is K-dominant and
    K-regular, so a positive system containing Delta+(k) makes x dominant
    (that of a regular point near x).  It is a chamber's, w_j(Delta+), so
    w_j^{-1} x = Lambda_dom and p = w_j(Lambda_dom) - rho_c.  Lambda_dom
    comes from norms.dominant_zeta, the lambda kernel's walk."""
    gammas: dict[tuple, int] = {}
    for j, (*a, g) in enumerate(chamber_images(dominant_zeta(lam))):
        if min(a) >= 1:
            gammas.setdefault(tuple(x - 1 for x in a) + (g,), j)
    return gammas


# ---------------------------------------------------------------------------
# spin LKTs and the index parity test


def spin_lkts(ktypes, lam):
    """Minimal-spin entries of a branching list, and whether that minimum
    witnesses nonvanishing Dirac cohomology (norm equality with the
    infinitesimal character)."""
    entries = list(ktypes)
    if not entries:
        raise ValueError("empty K-type list")
    spins = [Fraction(spin_sq12(mu), 12) for mu, _mult in entries]
    min_spin = min(spins)
    achievers = [entries[i] for i in range(len(entries)) if spins[i] == min_spin]
    lam_sq = infchar_norm_sq(lam)
    return min_spin, achievers, min_spin == lam_sq


def dirac_index_no_cancellation(lkt, spin_lkt_set) -> bool:
    """True when the central pairings (mu_i - mu, zeta) of all spin LKTs
    against the LKT, taken raw, are integers of one parity, so the index
    cannot lose terms to signs.  The pairing is (g_i - g) / 2: the varpi_k
    are orthogonal to zeta, and (zeta, zeta) = 3/2."""
    if not spin_lkt_set:
        raise ValueError("empty spin LKT set")
    parities = set()
    for mu in spin_lkt_set:
        diff = mu[6] - lkt[6]
        if diff % 2:
            raise ValueError(f"pairing of {mu} against the lowest K-type is not integral")
        parities.add(diff // 2 % 2)
    return len(parities) == 1
