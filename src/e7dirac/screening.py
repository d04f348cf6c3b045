"""Enumeration and filtering: admissibility sums, the u-small census, the
high-gap certificate set, the norm-window set of infinitesimal characters,
Dirac-cohomology candidate weights, spin LKT extraction, and the
same-parity index test.

The census enumerator is exact end to end: the norm ball bounds the scan,
cheap integer probes discard points separated by a fixed family of
K-dominant directions (soundness: a K-dominant point of the hull pairs with
any K-dominant direction at most at the support value), and every
surviving candidate is settled by is_usmall or by dominance propagation
from an already-settled point (the hull is closed downward under the
dominance order, which is the same lemma the LP formulation rests on).
is_usmall answers from a cached exact certificate of an earlier LP (a
verified basis or Farkas vector of the same fixed system) when one applies,
and solves the membership LP otherwise: on the census 162 LPs leave 162
certificates that settle the other candidates.

The candidate scan runs over mu = (a_1..a_6, g), the a-coordinates depth
first and g last.  A probe (w12, g12, h12) keeps mu when
v = sum_k a_k w12_k + g g12 <= h12; the scan carries the slack h12 - v of
the a-prefix down the recursion.  Two facts make it exact:

- Monotone pruning.  Every w12_k >= 0 and every entry of the Gram matrix
  of the varpi_k is positive (both asserted in _census_candidates), so
  the a-part of v never decreases when a coordinate grows or a deeper one
  is set.  A probe with g12 == 0 that is exceeded at coordinate a is
  exceeded for every larger a and every descendant: the loop breaks there,
  as it does when the norm 12|mu|^2 leaves the ball, which grows with
  each a-coordinate and so ends every loop.
- Leaf interval.  With the a-part fixed (norm term N, probe a-sums v), the
  g that pass are the integers of one interval, the intersection of the
  ball N + 2g^2 <= ball12, i.e. |g| <= isqrt((ball12 - N) // 2), and for
  each probe with g12 != 0 g <= (h12 - v) // g12 when g12 > 0, or
  g >= -((h12 - v) // -g12) when g12 < 0 (floor division; the second is
  the ceiling of (v - h12) / -g12).  The leaf steps through it by 3 from
  the first g in the residue class of structure.ktype_form, which makes mu
  a K-type.  Both forms are exact integer rewritings of the per-point
  tests, so the scan keeps the same points in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import ceil, isqrt
from operator import add as int_add, mul, sub as int_sub

from .norms import (
    _tables,
    infchar_norm_sq,
    is_usmall,
    ktype_ambient,
    lambda_norm_sq_fast,
    spin_sq12,
    weight_gram2,
)
from .structure import (
    build_root_datum,
    from_ambient,
    inner,
    ktype_form,
    sub,
    to_ambient,
)
from .weyl import apply_word, dominant_rep, enumerate_chambers

# The sixteen positivity sums on a 7-tuple [a..g]: six pairs and ten triples.
ADMISSIBILITY_SUMS: tuple[tuple[int, ...], ...] = (
    (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6),
    (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 3, 5), (0, 3, 6),
    (0, 4, 6), (1, 2, 4), (1, 2, 5), (1, 2, 6), (2, 4, 6),
)


def hp_admissible(lam) -> bool:
    """Nonnegative integer coordinates with every one of the sixteen
    admissibility sums strictly positive."""
    vals = []
    for c in lam:
        f = Fraction(c)
        if f.denominator != 1 or f < 0:
            return False
        vals.append(int(f))
    return all(sum(vals[i] for i in s) > 0 for s in ADMISSIBILITY_SUMS)


def lemma32_witness(lam, zero_indices: tuple[int, ...] = (0, 2)) -> bool:
    """For a 7-tuple vanishing exactly on the selected sum's indices (and
    nonnegative integral elsewhere), check that every one of the 56 coset
    representatives sends it to a vector with a zero among the first six
    fundamental-weight coordinates.  That forces the selected sum to be
    positive for any character supporting nonzero Dirac cohomology."""
    if tuple(zero_indices) not in ADMISSIBILITY_SUMS:
        raise ValueError(f"{zero_indices} is not one of the sixteen admissibility sums")
    vals = []
    for c in lam:
        f = Fraction(c)
        if f.denominator != 1 or f < 0:
            raise ValueError(f"coordinates must be nonnegative integers, got {lam}")
        vals.append(int(f))
    for i in zero_indices:
        if vals[i] != 0:
            raise ValueError(
                f"coordinate {i} must vanish for the selected sum, got {vals[i]}"
            )
    d = build_root_datum()
    v = to_ambient("zeta", vals)
    for ch in enumerate_chambers():
        w_v = apply_word(ch.word, v)
        if all(inner(w_v, g) != 0 for g in d.compact_simple):
            return False
    return True


# ---------------------------------------------------------------------------
# u-small census


@lru_cache(maxsize=1)
def _census_tables():
    """The norm ball and the probe directions of the census, read off
    norms._tables().

    A direction u with K-type coordinates (b, h), b >= 0, is K-dominant, so
    the hull's support function there is its best pairing with the
    K-dominant vertices 2 rho_n_j.  As (zeta, zeta) = 3/2 and
    (varpi_k, zeta) = 0, 12 (mu, u) = a . w12 + g g12 with
        w12 = gram12 . b,   g12 = 2h,
    and the support value is h12 = 2 max_j (b . w12_j + 2h g_j), where g_j
    is the g-coordinate of rho_n_j.
    """
    t = _tables()

    def support12(b, h) -> int:
        assert min(b) >= 0, f"BUG: probe direction {b} is not K-dominant"
        return 2 * max(sum(map(mul, b, w)) + 2 * h * r[6] for w, r in zip(t.w12, t.rho_n))

    # probe directions as K-type coordinates (b, h): zeta, -zeta, rho_c =
    # (1, ..., 1, 0), the varpi_i, rho_c + (h/3) zeta and varpi_i + rho_c
    rho_c, units = (1,) * 6, [tuple(int(i == k) for k in range(6)) for i in range(6)]
    probe_dirs = [((0,) * 6, 3), ((0,) * 6, -3), (rho_c, 0), *((b, 0) for b in units),
                  *((rho_c, h) for h in (9, -9, 27, -27)),
                  *((tuple(x + 1 for x in b), 0) for b in units)]
    probes = tuple(
        (tuple(sum(map(mul, row, b)) for row in t.gram12), 2 * h, support12(b, h))
        for b, h in probe_dirs
    )

    # norm ball: the norm is convex and W(k)-invariant, so no hull point is
    # longer than the longest vertex, 2 rho_n of the base chamber
    ball12 = 4 * max(t.norm12_rho_n)
    assert ball12 == 4 * t.norm12_rho_n[0] == 5832, f"BUG: 12|2rho_n|^2 = {ball12}"

    return {"ball12": ball12, "probes": probes}


def _census_candidates():
    """All K-types passing the norm ball and the probe directions, in
    lexicographic order.  The probe slacks h12 - v are carried down the
    scan: a probe without g-part prunes like the norm ball, and at a leaf
    the admissible g form one integer interval (module docstring)."""
    ct = _census_tables()
    gram12 = _tables().gram12
    probes = ct["probes"]
    ball12 = ct["ball12"]
    # monotone pruning: a larger a-coordinate never raises a probe's slack
    # and always raises the norm, so the ball ends every loop
    assert all(x >= 0 for w12, _, _ in probes for x in w12)
    assert all(x > 0 for row in gram12 for x in row), "BUG: varpi Gram not positive"
    flat = [p for p in probes if p[1] == 0]
    bounds = [p for p in probes if p[1] != 0]
    flat_cols = [tuple(w12[i] for w12, _, _ in flat) for i in range(6)]
    bound_cols = [tuple(w12[i] for w12, _, _ in bounds) for i in range(6)]
    g12s = tuple(g12 for _, g12, _ in bounds)
    out = []
    stack_a = [0] * 6

    def scan(i: int, norm_acc: int, flat_slack, bound_slack):
        # norm_acc = 12 * |sum of the first i varpi terms|^2; the slacks are
        # h12 minus the probe sums of the same prefix
        if i == 6:
            hi = isqrt((ball12 - norm_acc) // 2)
            lo = -hi
            for s, g12 in zip(bound_slack, g12s):
                if g12 > 0:
                    hi = min(hi, s // g12)
                else:
                    lo = max(lo, -(s // -g12))
            base = ktype_form(stack_a)
            prefix = tuple(stack_a)
            for g in range(lo + (base - lo) % 3, hi + 1, 3):
                out.append(prefix + (g,))
            return
        row = gram12[i]
        cross = 2 * sum(row[k] * stack_a[k] for k in range(i))
        fcol, bcol = flat_cols[i], bound_cols[i]
        for a in count():
            acc = norm_acc + a * (cross + row[i] * a)
            if acc > ball12 or min(flat_slack) < 0:
                break
            stack_a[i] = a
            scan(i + 1, acc, flat_slack, bound_slack)
            flat_slack = tuple(map(int_sub, flat_slack, fcol))
            bound_slack = tuple(map(int_sub, bound_slack, bcol))
        stack_a[i] = 0

    top = tuple(h12 for _, _, h12 in flat), tuple(h12 for _, _, h12 in bounds)
    scan(0, 0, *top)
    del scan  # a self-calling closure is a cycle that would keep `out` alive
    return out


def enumerate_usmall_ktypes() -> set[tuple[int, ...]]:
    """Every K-type inside the orbit hull of the 56 per-chamber sums of
    noncompact positive roots.  Parents mu + gamma_i (one compact simple
    root up) are settled before children, so a child can inherit membership
    without an LP.  Only candidates are ever decided, so a parent found in
    `decided` is a K-type."""
    # dominance functional (strictly positive on the compact positive roots)
    t = _tables()
    rc12 = t.rc12
    ordered = sorted(
        _census_candidates(),
        key=lambda mu: (-sum(mu[i] * rc12[i] for i in range(6)), mu),
    )
    decided: set[tuple[int, ...]] = set()
    for mu in ordered:
        if any(tuple(map(int_add, mu, gamma)) in decided for gamma in t.gamma) \
                or is_usmall(mu):
            decided.add(mu)
    return decided


# ---------------------------------------------------------------------------
# the certificate set


@dataclass(frozen=True)
class CertsEntry:
    ktype: tuple[int, ...]
    gap: Fraction
    lambda_norm_sq: Fraction


MIN_CERT_GAP = 94


def compute_certs(census: set[tuple[int, ...]]) -> set[CertsEntry]:
    """u-small K-types whose spin norm beats the lambda norm by at least
    the screening threshold: 12 spin >= floor = ceil(12 (lambda + 94)).
    The spin kernel runs with that floor, so a chamber value below it
    rejects mu at once; a result at or above it is the exact spin norm,
    which gives the gap."""
    out = set()
    for mu in census:
        lam = lambda_norm_sq_fast(mu)
        floor = ceil(12 * (lam + MIN_CERT_GAP))
        spin12 = spin_sq12(mu, floor)
        if spin12 >= floor:
            out.add(CertsEntry(ktype=mu, gap=Fraction(spin12, 12) - lam, lambda_norm_sq=lam))
    return out


# ---------------------------------------------------------------------------
# the norm-window characters


OMEGA_NORM_LO = Fraction(108)
OMEGA_NORM_HI = Fraction(469, 2)
# the window on the scale of weight_gram2, which holds twice the norms
OMEGA_HI2 = int(2 * OMEGA_NORM_HI)
OMEGA_LO2 = int(2 * OMEGA_NORM_LO)
assert (OMEGA_LO2, OMEGA_HI2) == (2 * OMEGA_NORM_LO, 2 * OMEGA_NORM_HI) == (216, 469)


def quadratic_points(q, bound: int, keep) -> list[tuple[int, ...]]:
    """Every c in N^n with c^T q c <= bound and keep(c, c^T q c), in
    lexicographic order, for a symmetric integer n x n matrix q.

    Lemma (the scan is exact and ends).  q has nonnegative entries, so for
    c >= 0 the value never decreases when a coordinate grows: raising c_i
    by one adds 2 (q c)_i + q_ii >= 0, and setting a later coordinate adds
    a nonnegative amount.  So each level stops at the first value over the
    bound, and no larger c_i or completion of the prefix comes back under
    it.  q also has a positive diagonal, so c_i^2 q_ii <= c^T q c gives
    c_i <= isqrt(bound // q_ii), and the scan ends.

    keep runs at each leaf, so rejected points are never stored."""
    n = len(q)
    assert all(q[i][k] == q[k][i] >= 0 for i in range(n) for k in range(n)), \
        "BUG: quadratic_points needs a symmetric nonnegative form"
    assert all(q[i][i] > 0 for i in range(n)), "BUG: quadratic_points needs a positive diagonal"
    out = []
    c = [0] * n

    def scan(i: int, acc: int):
        # acc = value of the prefix c[:i]; c_i = x adds x (cross + q_ii x)
        row = q[i]
        cross = 2 * sum(row[k] * c[k] for k in range(i))
        qii = row[i]
        x, value = 0, acc
        while value <= bound:
            c[i] = x
            if i + 1 < n:
                scan(i + 1, value)
            elif keep(point := tuple(c), value):
                out.append(point)
            x += 1
            value = acc + x * (cross + qii * x)
        c[i] = 0

    scan(0, 0)
    del scan  # a self-calling closure is a cycle that would keep `out` alive
    return out


def enumerate_omega() -> set[tuple[int, ...]]:
    """Dominant integral characters (nonnegative integer coordinates in the
    fundamental-weight basis) with squared norm in the screening window:
    the points of H = weight_gram2, which holds twice the norms, between
    OMEGA_LO2 and OMEGA_HI2."""
    return set(quadratic_points(weight_gram2(), OMEGA_HI2,
                                lambda c, value: value >= OMEGA_LO2))


# ---------------------------------------------------------------------------
# Dirac-cohomology candidates


@dataclass(frozen=True)
class DiracCandidateSet:
    inf_char: tuple
    gammas: dict  # varpi-basis coordinates -> witnessing chamber index


def dirac_candidate_gammas(lam) -> DiracCandidateSet:
    """The K-dominant weights w(Lambda) - rho_c over the 56 coset
    representatives, in K-type coordinates, with a witness for each."""
    d = build_root_datum()
    v = to_ambient("zeta", lam)
    dom, _ = dominant_rep(v, "G")
    gammas: dict[tuple, int] = {}
    for ch in enumerate_chambers():
        w_v = apply_word(ch.word, dom)
        gamma = sub(w_v, d.rho_c)
        if all(inner(gamma, g) >= 0 for g in d.compact_simple):
            coords = from_ambient("varpi", gamma)
            if coords not in gammas:
                gammas[coords] = ch.index
    assert len(gammas) <= 56
    return DiracCandidateSet(inf_char=tuple(lam), gammas=gammas)


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
    cannot lose terms to signs."""
    if not spin_lkt_set:
        raise ValueError("empty spin LKT set")
    d = build_root_datum()
    base = ktype_ambient(lkt)
    parities = set()
    for mu in spin_lkt_set:
        val = inner(sub(ktype_ambient(mu), base), d.zeta)
        if val.denominator != 1:
            raise ValueError(f"pairing of {mu} against the lowest K-type is not integral")
        parities.add(abs(int(val)) % 2)
    return len(parities) == 1
