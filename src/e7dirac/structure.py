"""Root datum of E7(-25) in exact integer arithmetic.

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

A Vec is an 8-tuple holding SCALE = 6 times the ambient coordinates.  6 is
the least common denominator of the datum (asserted when it is built), so
every lattice vector -- the roots, zeta_i, varpi_i, rho, rho_c, K-types,
integral characters -- has int entries, and dot(u, v) = 36 (u, v) is an
integer.  A reflection V - (2 V.A / A.A) A divides exactly on the weight
lattice, so the Weyl-group walks of weyl add and compare ints and build no
Fraction.  Arithmetic is generic: a vector off the lattice (a projection
point of the cone_project oracle, a test's random rational vector) carries
Fraction entries through the same functions and stays exact.

The edges convert: vec, to_ambient and ambient take or give ambient
coordinates, from_ambient gives basis coordinates, and inner, norm_sq and
pair_coroot return the true values of the form as Fractions.  Norms are
only ever handled in squared form, so every quantity stays rational.  The
two dual bases (zeta_i and varpi_i) come from the integer solver
simplex.adjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .simplex import adjugate

Vec = tuple  # SCALE x the ambient coordinates: ints on the lattice, Fractions off it

DIM_AMBIENT = 8
RANK = 7
COMPACT_RANK = 6

SCALE = 6
_SCALE_SQ = SCALE * SCALE  # dot(u, v) = _SCALE_SQ * (u, v)
_ROOT_DOT = 2 * _SCALE_SQ  # dot(a, a) of a root, whose norm is 2


def _rational(c):
    """c as an int when it is integral, else as a Fraction."""
    if isinstance(c, int):
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _exact(num, den):
    """num / den: an int when den divides num, else a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def vec(*coords) -> Vec:
    """The Vec of the given ambient coordinates."""
    return tuple(_rational(SCALE * Fraction(c)) for c in coords)


def ambient(v: Vec) -> tuple[Fraction, ...]:
    """The ambient coordinates of v; inverse of vec."""
    return tuple(Fraction(x, SCALE) for x in v)


def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def scale(c, v: Vec) -> Vec:
    """c v for an int or Fraction c."""
    return tuple(c * a for a in v)


def neg(v: Vec) -> Vec:
    return tuple(-a for a in v)


def dot(u: Vec, v: Vec):
    """The dot product of the scaled vectors: 36 (u, v), an int on the lattice."""
    return sum(map(mul, u, v))


def inner(u: Vec, v: Vec) -> Fraction:
    """The invariant form (u, v), realized as the ambient dot product."""
    return Fraction(dot(u, v), _SCALE_SQ)


def inner_times(k: int, u: Vec, v: Vec) -> int:
    """k (u, v) for lattice vectors, asserted to be an integer: the integer
    pairings the norms tables are read off."""
    q, r = divmod(k * dot(u, v), _SCALE_SQ)
    assert not r, f"BUG: {k} ({u}, {v}) is not an integer"
    return q


def norm_sq(v: Vec) -> Fraction:
    return inner(v, v)


def pair_coroot(v: Vec, root: Vec) -> Fraction:
    """<v, root^vee> = 2 (v, root) / (root, root)."""
    rr = dot(root, root)
    if rr == 0:
        raise ValueError("pair_coroot against the zero vector")
    return Fraction(2 * dot(v, root), rr)


def reflect(v: Vec, root: Vec, pairing=None) -> Vec:
    """v - <v, root^vee> root; the coefficient is an int on the weight
    lattice, so a lattice vector stays a tuple of ints.  A caller that
    already holds pairing = dot(v, root) for a root passes it, and the
    reflection then takes no dot product: every root has dot = _ROOT_DOT."""
    if pairing is None:
        c = _exact(2 * dot(v, root), dot(root, root))
    else:
        c = _exact(2 * pairing, _ROOT_DOT)
    return tuple(a - c * b for a, b in zip(v, root)) if c else v


def fmt_q(q) -> str:
    """An exact rational as p/q (or p)."""
    return str(q) if isinstance(q, (int, Fraction)) else str(Fraction(q))


def fmt_vec(coords) -> str:
    """Coordinates (ints or Fractions) as comma-separated fmt_q strings."""
    return ",".join(map(str, coords))


ZERO: Vec = (0,) * DIM_AMBIENT

_HALF = Fraction(1, 2)

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
    return dot(v, SPAN_COMPLEMENT) == 0


def _lattice_quotient(v: Vec, k: int, what: str) -> Vec:
    """v / k, asserted to stay on the lattice."""
    assert all(x % k == 0 for x in v), f"BUG: {what} = {v} / {k} leaves the lattice"
    return tuple(x // k for x in v)


def _dual_basis(constraints, count: int) -> list[Vec]:
    """The x_i with (x_i, c_k) = delta_ik for the first count constraints c_k
    and (x_i, c_k) = 0 for the others.  With C the integer matrix of the
    scaled constraints, C x_i = 36 e_i, so x_i = 36 adj(C) e_i / det C."""
    det, adj = adjugate(constraints)
    return [_lattice_quotient(tuple(_SCALE_SQ * row[i] for row in adj), det, "dual basis")
            for i in range(count)]


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
                if t not in roots and dot(t, t) == _ROOT_DOT:
                    roots.add(t)
                    nxt.append(t)
        frontier = nxt
    return sorted(roots)


@lru_cache(maxsize=1)
def build_root_datum() -> RootDatum:
    positives = _generate_positive_roots()
    assert len(positives) == 63, f"BUG: expected 63 positive roots, got {len(positives)}"

    rho = _lattice_quotient(_sum_vectors(positives), 2, "rho")
    assert rho == vec(0, 1, 2, 3, 4, 5, Fraction(-17, 2), Fraction(17, 2)), f"BUG: rho = {rho}"

    # Fundamental weights: (zeta_i, alpha_j^vee) = delta_ij inside the span.
    fundamental = _dual_basis(list(SIMPLE_ROOTS) + [SPAN_COMPLEMENT], RANK)
    zeta = fundamental[6]
    assert zeta == vec(0, 0, 0, 0, 0, 1, Fraction(-1, 2), Fraction(1, 2)), f"BUG: zeta = {zeta}"

    # k / p+ / p- trichotomy: the pairing with zeta of a root equals the
    # coefficient of alpha_7 in it, so it takes values 0, +1, -1.
    compact_pos = tuple(r for r in positives if dot(r, zeta) == 0)
    pplus = tuple(r for r in positives if dot(r, zeta) == _SCALE_SQ)
    assert len(compact_pos) == 36 and len(pplus) == 27, (
        f"BUG: compact/noncompact split {len(compact_pos)}/{len(pplus)}"
    )
    pminus = tuple(neg(r) for r in pplus)

    rho_c = _lattice_quotient(_sum_vectors(compact_pos), 2, "rho_c")
    assert rho_c == vec(0, 1, 2, 3, 4, -4, -4, 4), f"BUG: rho_c = {rho_c}"
    rho_n = sub(rho, rho_c)

    highest = max(pplus, key=lambda r: dot(r, rho))
    assert all(dot(highest, a) >= 0 for a in SIMPLE_ROOTS), "BUG: highest root not dominant"
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
    # SCALE = 6 is the least common denominator: every vector is integral
    # at scale 6, and neither scale 3 (all entries even) nor scale 2 (all
    # divisible by 3) would do.
    vectors = [*d.positive_roots, *d.fundamental_weights, *d.varpi,
               d.rho, d.rho_c, d.rho_n, d.zeta]
    entries = [x for v in vectors for x in v]
    assert all(type(x) is int for x in entries), "BUG: a datum vector off the 1/6 lattice"
    assert any(x % 2 for x in entries) and any(x % 3 for x in entries), \
        "BUG: the datum has a smaller common denominator than 6"
    assert _sum_vectors(d.positive_roots) == scale(2, d.rho), "BUG: sum of positives != 2 rho"
    assert _sum_vectors(d.compact_positive) == scale(2, d.rho_c), "BUG: compact sum != 2 rho_c"
    assert all(dot(r, d.zeta) in (0, _SCALE_SQ) for r in d.positive_roots), \
        "BUG: zeta-pairing trichotomy"
    for i, z in enumerate(d.fundamental_weights):
        for j, a in enumerate(d.simple_roots):
            want = _SCALE_SQ if i == j else 0  # (zeta_i, alpha_j) = delta_ij
            assert dot(z, a) == want, f"BUG: <zeta_{i+1}, alpha_{j+1}^vee> != {int(i == j)}"
        assert in_span(z), f"BUG: zeta_{i+1} outside the weight span"
    for i, w in enumerate(d.varpi):
        assert dot(w, d.zeta) == 0, f"BUG: varpi_{i+1} not orthogonal to zeta"
        assert in_span(w), f"BUG: varpi_{i+1} outside the weight span"
    # dim k = 79 and dim p = 54: the real-form label comes from 54 - 79.
    assert 2 * len(d.compact_positive) + RANK == 79
    assert len(d.pplus_roots) + len(d.pminus_roots) == 54


@lru_cache(maxsize=None)
def _basis(basis: str) -> tuple[Vec, ...]:
    """The seven Vecs a coordinate tuple of the basis multiplies."""
    d = build_root_datum()
    if basis == "zeta":
        return d.fundamental_weights
    if basis == "varpi":
        return d.varpi + (_lattice_quotient(d.zeta, 3, "zeta/3"),)
    raise ValueError(f"unknown basis {basis!r}")


def to_ambient(basis: str, coords) -> Vec:
    """The Vec of 7-tuple coordinates.

    basis "zeta": coefficients of the fundamental weights zeta_1..zeta_7.
    basis "varpi": [a..f, g] -> a*varpi_1 + ... + f*varpi_6 + (g/3)*zeta.
    """
    if len(coords) != RANK:
        raise ValueError(f"need 7 coordinates, got {len(coords)}")
    total = ZERO
    for c, b in zip(map(_rational, coords), _basis(basis)):
        if c:
            total = tuple(x + c * y for x, y in zip(total, b))
    return tuple(map(_rational, total))


def from_ambient(basis: str, v: Vec) -> tuple:
    """Inverse of to_ambient, with ints for the integral coordinates; v must
    lie in the 7-dimensional weight span."""
    if not in_span(v):
        raise ValueError("vector lies outside the weight span")
    d = build_root_datum()
    # a root a has norm 2, so <v, a^vee> = (v, a) = dot(v, a) / 36
    if basis == "zeta":
        return tuple(_exact(dot(v, a), _SCALE_SQ) for a in d.simple_roots)
    if basis == "varpi":
        head = [_exact(dot(v, a), _SCALE_SQ) for a in d.compact_simple]
        # (v, zeta) = (g/3) (zeta, zeta) = g/2.
        head.append(_exact(2 * dot(v, d.zeta), _SCALE_SQ))
        return tuple(head)
    raise ValueError(f"unknown basis {basis!r}")


def ktype_form(e6) -> int:
    """2a + 3b + 4c + 6d + 5e + 4f for the e6 coordinates a..f, unreduced:
    [a..f, g] lies in the character lattice iff g = this form mod 3."""
    a, b, c, d, e, f = e6
    return 2 * a + 3 * b + 4 * c + 6 * d + 5 * e + 4 * f


def is_k_type(coords) -> bool:
    """Whether [a..f, g] is the highest weight of a K-type.

    Requires a..f nonnegative integers and g an integer; beyond that the
    weight must lie in the character lattice (ktype_form).
    """
    if len(coords) != RANK:
        raise ValueError(f"need 7 coordinates, got {len(coords)}")
    if any(int(x) != x for x in coords):
        return False
    *e6, g = coords
    if min(e6) < 0:
        raise ValueError(f"negative e6 coordinates in {coords}")
    return (ktype_form(e6) - g) % 3 == 0


def contragredient(coords) -> tuple:
    """Highest weight of the dual K-type: [a..f,g] -> [f,b,e,d,c,a,-g]."""
    a, b, c, d, e, f, g = coords
    return (f, b, e, d, c, a, -g)
