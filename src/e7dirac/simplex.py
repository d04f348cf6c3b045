"""adjugate, the package's one exact linear solver, and hull_facets, the
facets of the convex hull of integer points.

adjugate keeps its tableau integer with Bareiss-style pivots (_pivot:
every update divides exactly by the previous pivot), so there is no
rounding anywhere and no Fraction in the inner loop.  No pipeline path
solves an LP: the u-small test runs on the hull's facets.
"""

from __future__ import annotations

from math import gcd
from operator import mul


def _pivot(allrows: list[list[int]], prow: list[int], enter: int, denom: int) -> int:
    """Bareiss pivot on prow[enter]; returns the new denominator."""
    piv = prow[enter]
    for row in allrows:
        if row is prow:
            continue
        f = row[enter]
        if f:
            row[:] = [(piv * a - f * b) // denom for a, b in zip(row, prow)]
        elif piv != denom:
            row[:] = [(piv * a) // denom for a in row]
    return piv


def adjugate(m) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det m, adj m) for a nonsingular square integer m: Gauss-Jordan with
    _pivot on [m | I], swapping in a lower row at a zero pivot.  With P the
    swaps, the block ends as [det(Pm) I | det(Pm) m^{-1}], det(Pm) = sign
    det m.  Certified by m adj = det I before it is returned."""
    n = len(m)
    aug = [[int(v) for v in row] + [int(r == s) for s in range(n)] for r, row in enumerate(m)]
    denom, sign = 1, 1
    for p in range(n):
        q = next((r for r in range(p, n) if aug[r][p]), None)
        if q is None:
            raise RuntimeError(f"BUG: singular matrix {m}")
        if q != p:
            aug[p], aug[q], sign = aug[q], aug[p], -sign
        denom = _pivot(aug, aug[p], p, denom)
    det = sign * denom
    adj = tuple(tuple(sign * v for v in row[n:]) for row in aug)
    assert all(sum(map(mul, row, col)) == (det if r == s else 0)
               for r, row in enumerate(m) for s, col in enumerate(zip(*adj))), \
        f"BUG: adjugate of {m}"
    return det, adj


def _primitive(c) -> tuple[int, ...]:
    g = gcd(*c)
    return tuple(x // g for x in c) if g > 1 else tuple(c)


def hull_facets(points) -> tuple[tuple[int, ...], ...]:
    """The facets of the convex hull of integer points that affinely span
    R^n, sorted: primitive integer rows c = (c_0, c_1..c_n) with
    c_0 + c_1 p_1 + ... + c_n p_n >= 0 at every point, and = 0 at n
    affinely independent ones.

    Double description (Motzkin).  Lift p to (1, p); the hull's facets are
    those of the cone the lifted points span.  The first n + 1 lifted
    points that are linearly independent span a simplicial cone with the
    facets sign(det) adj[:, k], adj from adjugate of their matrix.  Each
    further point q splits the facets by the sign of c . q: those >= 0
    stay, those < 0 go, and each adjacent pair (c+, c-) gives the facet
    (c+ . q) c- - (c- . q) c+ through q.  A pair is adjacent when the
    points tight on both number at least n - 1 and no third facet is
    tight on all of them (the combinatorial test of the double description
    method)."""
    lifted = [(1, *map(int, p)) for p in points]
    dim = len(lifted[0])
    # the first basis: a point joins when it is independent of those before
    basis, echelon = [], []
    for k, v in enumerate(lifted):
        r = list(v)
        for e, piv in echelon:
            if r[piv]:
                r = list(_primitive([e[piv] * x - r[piv] * y for x, y in zip(r, e)]))
        piv = next((i for i, x in enumerate(r) if x), None)
        if piv is not None:
            basis.append(k)
            echelon.append((r, piv))
            if len(basis) == dim:
                break
    if len(basis) < dim:
        raise ValueError("hull_facets: the points do not affinely span the space")
    det, adj = adjugate([lifted[k] for k in basis])
    sign = 1 if det > 0 else -1
    done = sum(1 << k for k in basis)
    # (c, tight): tight is the bitmask of the points so far with c . p == 0
    facets = [(_primitive([sign * row[col] for row in adj]), done & ~(1 << k))
              for col, k in enumerate(basis)]
    for k, q in enumerate(lifted):
        if done >> k & 1:
            continue
        vals = [sum(map(mul, c, q)) for c, _ in facets]
        bit = 1 << k
        new = []
        for i, vi in enumerate(vals):
            if vi <= 0:
                continue
            for j, vj in enumerate(vals):
                if vj >= 0:
                    continue
                common = facets[i][1] & facets[j][1]
                if common.bit_count() < dim - 2 or any(
                        common & z == common for m, (_, z) in enumerate(facets)
                        if m != i and m != j):
                    continue
                c = _primitive([vi * a - vj * b for a, b in zip(facets[j][0], facets[i][0])])
                new.append((c, common | bit))
        facets = [(c, z | bit if v == 0 else z) for (c, z), v in zip(facets, vals) if v >= 0]
        facets += new
    return tuple(sorted(c for c, _ in facets))
