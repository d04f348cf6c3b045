"""Root datum of E7(-25) in exact rational arithmetic.

Everything lives in an 8-coordinate ambient space carrying the standard
dot product; E7 weights span the 7-dimensional orthogonal complement of
e7 + e8.  The maximal compact subgroup K has Lie algebra e6 + R, with the
e6 simple roots being the first six simple roots of g and the center
spanned by the fundamental weight zeta of the seventh node.

Two coordinate systems are used on top of the ambient one:

* zeta basis: [a, ..., g] means a*zeta_1 + ... + g*zeta_7 (fundamental
  weights of g).  Infinitesimal characters and atlas parameters use it.
* varpi basis: [a, ..., g] means a*varpi_1 + ... + f*varpi_6 + (g/3)*zeta,
  where varpi_i are the fundamental weights of the e6 factor extended by
  zero on the center.  K-type highest weights use it.

Vectors have fractions.Fraction coordinates, and norms are only ever
handled in squared form, so every quantity stays rational.  The two dual
bases (zeta_i and varpi_i) come from the integer solver simplex.adjugate
on doubled constraint matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .simplex import adjugate

Vec = tuple[Fraction, ...]

DIM_AMBIENT = 8
RANK = 7
COMPACT_RANK = 6

_HALF = Fraction(1, 2)


def vec(*coords) -> Vec:
    return tuple(Fraction(c) for c in coords)


def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def scale(c, v: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in v)


def neg(v: Vec) -> Vec:
    return tuple(-a for a in v)


def inner(u: Vec, v: Vec) -> Fraction:
    """The invariant form, realized as the ambient dot product."""
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def norm_sq(v: Vec) -> Fraction:
    return inner(v, v)


def pair_coroot(v: Vec, root: Vec) -> Fraction:
    """<v, root^vee> = 2 (v, root) / (root, root)."""
    rr = inner(root, root)
    if rr == 0:
        raise ValueError("pair_coroot against the zero vector")
    return 2 * inner(v, root) / rr


def reflect(v: Vec, root: Vec) -> Vec:
    return sub(v, scale(pair_coroot(v, root), root))


def fmt_q(q) -> str:
    """An exact rational as p/q (or p)."""
    return str(Fraction(q))


def fmt_vec(v) -> str:
    return ",".join(fmt_q(c) for c in v)


ZERO = tuple(Fraction(0) for _ in range(DIM_AMBIENT))

# Simple roots alpha_1..alpha_7.  Nodes 1..6 generate the e6 factor of k;
# node 7 is the noncompact one.
SIMPLE_ROOTS: tuple[Vec, ...] = (
    vec(_HALF, -_HALF, -_HALF, -_HALF, -_HALF, -_HALF, -_HALF, _HALF),
    vec(1, 1, 0, 0, 0, 0, 0, 0),
    vec(-1, 1, 0, 0, 0, 0, 0, 0),
    vec(0, -1, 1, 0, 0, 0, 0, 0),
    vec(0, 0, -1, 1, 0, 0, 0, 0),
    vec(0, 0, 0, -1, 1, 0, 0, 0),
    vec(0, 0, 0, 0, -1, 1, 0, 0),
)

# The ambient space is 8-dimensional; weights span the orthogonal
# complement of this direction.
SPAN_COMPLEMENT: Vec = vec(0, 0, 0, 0, 0, 0, 1, 1)


def in_span(v: Vec) -> bool:
    return inner(v, SPAN_COMPLEMENT) == 0


def _dual_basis(constraints, count: int) -> list[Vec]:
    """The x_i with (x_i, c_k) = delta_ik for the first count constraints c_k
    and (x_i, c_k) = 0 for the others.  Doubled, the constraint matrix M is
    integral, so x_i = 2 adj(M) e_i / det M."""
    det, adj = adjugate([[int(2 * x) for x in c] for c in constraints])
    return [tuple(Fraction(2 * row[i], det) for row in adj) for i in range(count)]


@dataclass(frozen=True)
class RootDatum:
    simple_roots: tuple[Vec, ...]
    positive_roots: tuple[Vec, ...]
    fundamental_weights: tuple[Vec, ...]  # zeta_1..zeta_7
    compact_simple: tuple[Vec, ...]  # gamma_1..gamma_6 = alpha_1..alpha_6
    compact_positive: tuple[Vec, ...]
    pplus_roots: tuple[Vec, ...]
    pminus_roots: tuple[Vec, ...]
    rho: Vec
    rho_c: Vec
    rho_n: Vec
    zeta: Vec
    varpi: tuple[Vec, ...]  # varpi_1..varpi_6, orthogonal to zeta
    highest_root: Vec


def _generate_positive_roots() -> list[Vec]:
    # Closure under adding simple roots; in a simply laced system v is a
    # root iff it lies in the root lattice with squared length 2, and every
    # positive root is reachable from a simple root through positive roots.
    roots = set(SIMPLE_ROOTS)
    frontier = list(SIMPLE_ROOTS)
    while frontier:
        nxt = []
        for r in frontier:
            for a in SIMPLE_ROOTS:
                t = add(r, a)
                if t not in roots and norm_sq(t) == 2:
                    roots.add(t)
                    nxt.append(t)
        frontier = nxt
    return sorted(roots)


@lru_cache(maxsize=1)
def build_root_datum() -> RootDatum:
    positives = _generate_positive_roots()
    assert len(positives) == 63, f"BUG: expected 63 positive roots, got {len(positives)}"

    rho = scale(_HALF, _sum_vectors(positives))
    assert rho == vec(0, 1, 2, 3, 4, 5, Fraction(-17, 2), Fraction(17, 2)), f"BUG: rho = {rho}"

    # Fundamental weights: (zeta_i, alpha_j^vee) = delta_ij inside the span.
    fundamental = _dual_basis(list(SIMPLE_ROOTS) + [SPAN_COMPLEMENT], RANK)
    zeta = fundamental[6]
    assert zeta == vec(0, 0, 0, 0, 0, 1, -_HALF, _HALF), f"BUG: zeta = {zeta}"

    # k / p+ / p- trichotomy: the pairing with zeta of a root equals the
    # coefficient of alpha_7 in it, so it takes values 0, +1, -1.
    compact_pos = tuple(r for r in positives if inner(r, zeta) == 0)
    pplus = tuple(r for r in positives if inner(r, zeta) == 1)
    assert len(compact_pos) == 36 and len(pplus) == 27, (
        f"BUG: compact/noncompact split {len(compact_pos)}/{len(pplus)}"
    )
    assert all(inner(r, zeta) in (0, 1) for r in positives), "BUG: zeta-pairing trichotomy"
    pminus = tuple(scale(-1, r) for r in pplus)

    rho_c = scale(_HALF, _sum_vectors(compact_pos))
    assert rho_c == vec(0, 1, 2, 3, 4, -4, -4, 4), f"BUG: rho_c = {rho_c}"
    rho_n = sub(rho, rho_c)

    highest = max(pplus, key=lambda r: inner(r, rho))
    assert all(pair_coroot(highest, a) >= 0 for a in SIMPLE_ROOTS), "BUG: highest root not dominant"
    assert highest == vec(0, 0, 0, 0, 0, 0, -1, 1), f"BUG: highest root = {highest}"

    # varpi_i: fundamental weights of the e6 factor, extended by zero on the
    # center R*zeta.
    varpi = _dual_basis(list(SIMPLE_ROOTS[:COMPACT_RANK]) + [zeta, SPAN_COMPLEMENT],
                        COMPACT_RANK)

    datum = RootDatum(
        simple_roots=SIMPLE_ROOTS,
        positive_roots=tuple(positives),
        fundamental_weights=tuple(fundamental),
        compact_simple=SIMPLE_ROOTS[:COMPACT_RANK],
        compact_positive=compact_pos,
        pplus_roots=pplus,
        pminus_roots=pminus,
        rho=rho,
        rho_c=rho_c,
        rho_n=rho_n,
        zeta=zeta,
        varpi=tuple(varpi),
        highest_root=highest,
    )
    _check_datum(datum)
    return datum


def _sum_vectors(vectors) -> Vec:
    total = ZERO
    for v in vectors:
        total = add(total, v)
    return total


def _check_datum(d: RootDatum) -> None:
    assert _sum_vectors(d.positive_roots) == scale(2, d.rho), "BUG: sum of positives != 2 rho"
    assert _sum_vectors(d.compact_positive) == scale(2, d.rho_c), "BUG: compact sum != 2 rho_c"
    for i, z in enumerate(d.fundamental_weights):
        for j, a in enumerate(d.simple_roots):
            want = Fraction(int(i == j))
            assert pair_coroot(z, a) == want, f"BUG: <zeta_{i+1}, alpha_{j+1}^vee> != {want}"
        assert in_span(z), f"BUG: zeta_{i+1} outside the weight span"
    for i, w in enumerate(d.varpi):
        assert inner(w, d.zeta) == 0, f"BUG: varpi_{i+1} not orthogonal to zeta"
        assert in_span(w), f"BUG: varpi_{i+1} outside the weight span"
    # dim k = 79 and dim p = 54: the real-form label comes from 54 - 79.
    assert 2 * len(d.compact_positive) + RANK == 79
    assert len(d.pplus_roots) + len(d.pminus_roots) == 54


def to_ambient(basis: str, coords) -> Vec:
    """Expand 7-tuple coordinates into the ambient space.

    basis "zeta": coefficients of the fundamental weights zeta_1..zeta_7.
    basis "varpi": [a..f, g] -> a*varpi_1 + ... + f*varpi_6 + (g/3)*zeta.
    """
    if len(coords) != RANK:
        raise ValueError(f"need 7 coordinates, got {len(coords)}")
    d = build_root_datum()
    coords = [Fraction(c) for c in coords]
    if basis == "zeta":
        total = ZERO
        for c, z in zip(coords, d.fundamental_weights):
            total = add(total, scale(c, z))
        return total
    if basis == "varpi":
        total = scale(coords[6] / 3, d.zeta)
        for c, w in zip(coords[:COMPACT_RANK], d.varpi):
            total = add(total, scale(c, w))
        return total
    raise ValueError(f"unknown basis {basis!r}")


def from_ambient(basis: str, v: Vec) -> tuple[Fraction, ...]:
    """Inverse of to_ambient; v must lie in the 7-dimensional weight span."""
    if not in_span(v):
        raise ValueError("vector lies outside the weight span")
    d = build_root_datum()
    if basis == "zeta":
        return tuple(pair_coroot(v, a) for a in d.simple_roots)
    if basis == "varpi":
        head = [pair_coroot(v, a) for a in d.compact_simple]
        # (v, zeta) = (g/3) (zeta, zeta) = g/2.
        head.append(2 * inner(v, d.zeta))
        return tuple(head)
    raise ValueError(f"unknown basis {basis!r}")


def is_k_type(coords) -> bool:
    """Whether [a..f, g] is the highest weight of a K-type.

    Requires a..f nonnegative integers and g an integer; beyond that the
    weight must lie in the character lattice, which is the congruence
    2a + 3b + 4c + 6d + 5e + 4f - g = 0 mod 3.
    """
    if len(coords) != RANK:
        raise ValueError(f"need 7 coordinates, got {len(coords)}")
    a, b, c, dd, e, f, g = coords
    for x in (a, b, c, dd, e, f, g):
        if int(x) != x:
            return False
    if min(a, b, c, dd, e, f) < 0:
        raise ValueError(f"negative e6 coordinates in {coords}")
    return (2 * a + 3 * b + 4 * c + 6 * dd + 5 * e + 4 * f - g) % 3 == 0


def contragredient(coords) -> tuple:
    """Highest weight of the dual K-type: [a..f,g] -> [f,b,e,d,c,a,-g]."""
    a, b, c, d, e, f, g = coords
    return (f, b, e, d, c, a, -g)
