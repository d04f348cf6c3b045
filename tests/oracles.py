"""By-definition references that only the tests use.

No output of e7dirac and no criterion of `e7dirac verify` runs these, so
they live here rather than in the package; the tests import them the way
they import frozen_values.  The by-definition routines that verify's
property suite runs (norms.cone_project, norms.lambda_datum and
norms._allowable_chambers) stay in the package.

- lp_solve: an exact phase-1 simplex, the reference for the u-small test
  on the hull's facets (norms.usmall_facets).
- spin_datum: the spin norm by definition, one W(K) walk per chamber on
  ambient vectors, the reference for norms.spin_sq12 and
  norms.spin_sq12_with_weights.
- apply_word: a Weyl word applied to a vector, the reference for the words
  of weyl.dominant_rep and of the chambers.
- lemma32_witness: the paper's lemma 3.2, checked on the chamber images of
  norms.chamber_images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from e7dirac.norms import chamber_images, ktype_ambient
from e7dirac.screening import ADMISSIBILITY_SUMS, _naturals
from e7dirac.simplex import _pivot
from e7dirac.structure import Vec, add, build_root_datum, from_ambient, norm_sq, reflect, sub
from e7dirac.weyl import WeylWord, dominant_rep, enumerate_chambers


def lp_solve(rows: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """A nonnegative exact solution of Ax = b, or None if there is none.

    Decides whether {x >= 0 : Ax = b} is nonempty for integer A, b using a
    phase-1 simplex.  The tableau is kept integer with the package's
    Bareiss-style pivots (simplex._pivot: every update divides exactly by
    the previous pivot), so there is no rounding anywhere and no Fraction
    overhead in the inner loop.  The entering variable follows Dantzig's
    rule (most negative reduced cost) for the first 50 pivots and Bland's
    rule (lowest index) after that, so a run that could cycle ends under
    Bland's rule, which rules cycling out.  The ratio test breaks ties by
    the lowest basic variable index.

    Artificial columns are withdrawn once they leave the basis; a
    zero-value solution has all artificials at zero anyway, so the answer
    is unaffected.  Artificials still basic when phase 1 ends are at zero,
    so x is read off the real basic columns alone."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    assert all(len(r) == n for r in rows), "BUG: ragged constraint matrix"
    assert len(rhs) == m

    # tableau rows: n real columns, m artificial columns, rhs column
    signs = [-1 if b < 0 else 1 for b in rhs]
    tab: list[list[int]] = []
    for i in range(m):
        sign = signs[i]
        row = [sign * int(v) for v in rows[i]]
        row.extend(1 if j == i else 0 for j in range(m))
        row.append(sign * int(rhs[i]))
        tab.append(row)

    # phase-1 objective: minimize the artificial sum; reduced-cost row for
    # the artificial basis is minus the column sums over the real columns.
    obj = [0] * (n + m + 1)
    for j in range(n):
        obj[j] = -sum(tab[i][j] for i in range(m))
    obj[n + m] = -sum(tab[i][n + m] for i in range(m))

    basis = [n + i for i in range(m)]
    denom = 1
    alive = [True] * (n + m)  # artificial columns die when they leave the basis
    allrows = tab + [obj]
    last = n + m
    pivots = 0

    while obj[last] != 0:  # objective is zero exactly when all artificials are
        # Dantzig rule while cheap, Bland once long enough to risk cycling.
        enter = -1
        if pivots < 50:
            best = 0
            for j in range(last):
                v = obj[j]
                if v < best and alive[j]:
                    best = v
                    enter = j
        else:
            for j in range(last):
                if alive[j] and obj[j] < 0:
                    enter = j
                    break
        if enter < 0:
            break
        # ratio test, ties by smallest basic variable index (Bland)
        leave = -1
        for i in range(m):
            if tab[i][enter] <= 0:
                continue
            if leave < 0:
                leave = i
            else:
                lhs = tab[i][last] * tab[leave][enter]
                rhs_ = tab[leave][last] * tab[i][enter]
                if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # objective unbounded below cannot happen in phase 1
            raise RuntimeError("BUG: phase-1 simplex claims an unbounded direction")
        if basis[leave] >= n:
            alive[basis[leave]] = False
        basis[leave] = enter
        denom = _pivot(allrows, tab[leave], enter, denom)
        pivots += 1

    if obj[last] != 0:
        return None  # optimal with a positive artificial sum
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tab[i][last], denom)
    return x


@dataclass(frozen=True)
class SpinDatum:
    spin_norm_sq: Fraction
    achieving_chambers: frozenset[int]
    prv_weights: dict  # chamber -> K-type coordinates of {mu - rho_n_j}


def spin_datum(mu) -> SpinDatum:
    """Exact minimum over the 56 chambers of |{mu - rho_n_j} + rho_c|^2,
    with the achieving chambers and their dominant weights."""
    d = build_root_datum()
    v = ktype_ambient(mu)
    best = None
    per_chamber: list[tuple[int, Fraction, tuple[int, ...]]] = []
    for ch in enumerate_chambers():
        x = sub(v, ch.rho_n_j)
        dom, _ = dominant_rep(x, "K")
        val = norm_sq(add(dom, d.rho_c))
        coords = tuple(int(c) for c in from_ambient("varpi", dom))
        per_chamber.append((ch.index, val, coords))
        if best is None or val < best:
            best = val
    achieving = frozenset(j for j, val, _ in per_chamber if val == best)
    prv = {j: coords for j, val, coords in per_chamber if val == best}
    return SpinDatum(spin_norm_sq=best, achieving_chambers=achieving, prv_weights=prv)


def apply_word(word: WeylWord, v: Vec) -> Vec:
    """s_lk(... s_l1(v) ...) for the word (l1, ..., lk): the reflection at
    alpha_l1 first (weyl's convention)."""
    d = build_root_datum()
    for letter in word:
        v = reflect(v, d.simple_roots[letter - 1])
    return v


def lemma32_witness(lam, zero_indices: tuple[int, ...] = (0, 2)) -> bool:
    """For a 7-tuple vanishing exactly on the selected sum's indices (and
    nonnegative integral elsewhere), check that every one of the 56 coset
    representatives sends it to a vector with a zero among the first six
    fundamental-weight coordinates, read off norms.chamber_images.  That
    forces the selected sum to be positive for any character supporting
    nonzero Dirac cohomology."""
    if tuple(zero_indices) not in ADMISSIBILITY_SUMS:
        raise ValueError(f"{zero_indices} is not one of the sixteen admissibility sums")
    vals = _naturals(lam)
    if vals is None:
        raise ValueError(f"coordinates must be nonnegative integers, got {lam}")
    for i in zero_indices:
        if vals[i] != 0:
            raise ValueError(
                f"coordinate {i} must vanish for the selected sum, got {vals[i]}"
            )
    return not any(all(image[:6]) for image in chamber_images(vals))
