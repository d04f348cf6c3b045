"""The three metrics on K-types: lambda norm (nearest point in a chamber
cone), spin norm (minimum over chambers of a shifted dominant
representative), and membership in the u-small convex hull, decided by
the hull's facets.  Also the Dirac inequality classifier and the integer
height used by atlas.

The public functions work on exact ambient vectors.  The module-level
tables cache integer pairing data (per chamber for the spin kernel) so
that the census-sized loops (tens of thousands of K-types) run on machine
integers; tests pin the fast paths to the straightforward definitions.
The integer kernels take every pairing from _tables() and weight_gram2(),
which read them off the scaled integer datum with structure.inner_times;
height_steps() are the row sums of weight_gram2(), and every chamber
image is read off chamber_weights() (below).  usmall_facets() derives
the u-small hull's facets once, on the first query, from the vertices in
_tables(); is_usmall and the census scan of screening both test them.

Chamber images.  Row i of chamber j in chamber_weights(), built on first
use, holds the K-type coordinates of z_i = w_j(zeta_i): n_{k,i} =
<z_i, gamma_k^vee>, k < 6, and 2(z_i, zeta); integral, and n_{k,i} >= 0
as z_i is dominant for the chamber and each gamma_k positive in it
(asserted).  So w_j(sum y_i zeta_i) has coordinates sum y_i row_i
(chamber_images), and rho_c has (1, ..., 1, 0).  The height scan and the
Dirac candidate set read every image off this table.

Lambda kernel.  Let v = mu + 2 rho_c.  In a chamber j = w(Delta+) where v
is dominant, with weights z_i = w(zeta_i), v = sum y_i z_i with
y_i = <v, (w alpha_i)^vee> = <w^{-1} v, alpha_i^vee>: y holds the
zeta-coordinates of w^{-1} v, the one W(G)-dominant point of the orbit of
v, the same in every such chamber.  _witness_c reads the zeta-coordinates
of v off one integer table (zeta3) and walks (dominant_zeta, shared with
screening's candidate set): while some y_i < 0, it reflects at the lowest
such i, y_k -> y_k - y_i A_ik (A the Cartan matrix).  s_i negates alpha_i
and permutes the other positive roots, so the walk makes exactly as many
reflections as there are positive roots pairing negatively with v.  v
pairs >= 2 with every compact simple root, so every root it pairs
negatively with is noncompact: at most 27.  (So a
chamber where v is dominant exists: if w^{-1} v is dominant, each compact
positive root pairs positively with v and is positive in w(Delta+).)
With c_i = y_i - 1, as rho_j is the sum of the z_i,
eta = v - rho_j = sum c_i z_i, and its nearest point of the cone spanned
by the z_i is sum x_i z_i with

    x = argmin_{x >= 0} (c - x)^T G (c - x),   G = ((z_i, z_k)).

G and the height steps d_i = (z_i, 2 rho_j) are Weyl-invariant, so they
are the Gram matrix of zeta_1..zeta_7 and d = (zeta_i, 2 rho) =
(34, 49, 66, 96, 75, 52, 27) in every chamber; as rho is the sum of the
zeta_k, d_i is the i-th row sum of H = 2G.  The projection is thus one
integer problem with no chamber data: |lambda_a|^2 = x^T G x and the
height (lambda_a, 2 rho_j) = d . x.  It is solved face by face with the
certified integer adjugates of H_SS (_face; see _lambda_kernel).  The
cone_project oracle solves its faces with the same adjugates, but tries
every face by definition and accepts by ambient pairings with the
chamber's own weights, so it stays an independent reference.

Height invariance.  The kernel's input c depends on v alone, so the norm
and the height d . x it returns are the same for every chamber j where v
is dominant: there lambda_a = w(sum x_i zeta_i), and
(lambda_a, 2 rho_j) = (sum x_i zeta_i, 2 rho).  (lambda_datum projects in
each such chamber by definition and asserts that the points agree.)  So
the height scan measures a height once per y: K-types with the same y,
found in one chamber or in several, have the same height.

Scan pruning.  The height scan walks mu + 2 rho_c = sum_i y_i z_i, so by
the chamber images a_k = sum_i y_i n_{k,i} - 2, every n_{k,i} >= 0.  It
fixes the y_i one level at a time, in a fixed order of the indices.  With
budget b left for the levels not yet fixed, those levels raise a_k by at
most b num_k / den_k, where num_k / den_k is the maximum of
n_{k,i'} / d_{i'} over those levels i', d = height_steps() in every
chamber; a branch where some a_k < 0 cannot reach 0 within that bound holds
no K-type and is cut.  The argument holds for any fixed order, as this
reach is the maximum over the levels still open, whichever they are.  As
b >= 0 and num_k >= 0, the cut is a_k den_k + b num_k < 0 alone (it
forces a_k < 0).  The children of a node at level i take y_i = n: child n
has a_k + n n_{k,i} and b - n d_i, so it survives iff
c0 + n c1 >= 0 for every k, with c0 = a_k den_k + b num_k,
c1 = n_{k,i} den_k - d_i num_k and num_k, den_k the reach of the levels
after i.  c1 depends on the chamber and the level alone, so it is kept,
split by sign, in scan_tables(), and a node computes only c0.  Each
condition is linear in n, so the surviving counts form one interval of
0 <= n <= b // d_i, found by integer floor and ceiling division
(_count_range).  The scan loops over that interval alone and checks the
cut at the root, y = 0, once per chamber: it visits the same nodes in the
same order as a test of every child would, and makes no call for a child
that is cut.  Child n of a node gets the tuples mu + n row_i and
y + (n,): nothing is undone.

Scan order.  scan_order() fixes the levels by descending d_i, which is
(3, 4, 2, 5, 1, 0, 6).  A level of step d_i has at most b // d_i + 1
counts, so the top levels, where the budget is whole and every node
branches, have the fewest, and the wide ranges of the small steps come
last, where the cuts have already dropped most branches.  At cap 320 the
scan makes 17982 _count_range calls (inner nodes) in this order against
32324 in index order, and at cap 400 45280 against 71320.  The leaves,
16002 and 63600, are the same in every order: the last cut is the leaf
condition a_k >= 0 itself.

Spin kernel.  The spin norm is the minimum over the chambers j of
v_j = 12 |p + rho_c|^2, p the K-dominant representative of
y = mu - rho_n_j.  As |p| = |y|, v_j = 12 |y|^2 + 936 + 24 (p, rho_c).
Lemma (orbit maximum): (p, rho_c) = max over w in W(K) of (w y, rho_c).
For p - w y is a nonnegative sum of compact positive roots (Humphreys,
Lie Algebras, 13.2), each pairing positively with rho_c.  The longest
element w0 of W(K) sends the compact positive roots to the negative ones,
so w0 rho_c = -rho_c (asserted when the tables are built: -rho_c has
dominant representative rho_c), and (w0 y, rho_c) = -(y, rho_c).  With
w = 1 and w = w0, (p, rho_c) >= |(y, rho_c)|.  So, with
L_j = 12 |y + rho_c|^2 = 12 |y|^2 + 936 + 2 t_j and t_j = 12 (y, rho_c),

    v_j >= L'_j = L_j + max(0, -4 t_j).

Neither needs a walk: L_j = norm12_ktype(mu) + lin_j . mu + k_j with
lin_j = (2 rc12 - 2 w12_j, -4 g(rho_n_j)), w12_j = 12 (varpi_i, rho_n_j),
and k_j = 12|rho_n_j|^2 + 936 - 2 rho_n_j . rc12 (the table spin_bound);
t_j = mu . rc12 - rho_n_j . rc12 (the table rc12_rho_n), as rho_c is
orthogonal to zeta.  _spin_walk visits the chambers in ascending L'_j
(after a first chamber, below) and stops at the first with L'_j >= the
least v so far, since no later chamber can go below it; when the
achieving chambers are wanted it stops only at L'_j > that value, so that
tied chambers are walked.

Running value.  The walk starts at p = y, where 12 |p + rho_c|^2 = L_j,
and reflects at the first i with p_i < 0: p -> p - p_i gamma_i.  The
reflection keeps |p| and moves (p, rho_c) by -p_i (gamma_i, rho_c) = -p_i
(each gamma_i . rc12 = 12, asserted), so the value rises by exactly
-24 p_i > 0, and at the end of the walk it is v_j.  Once a least value
exists, a walk is dropped as soon as its running value reaches that value
(plus one when ties are wanted): v_j is at least the running value, so the
chamber can neither win nor tie.  A walk that runs to the end asserts
v_j >= L'_j.  With a floor the kernel returns the first v_j below the
floor, which bounds the spin norm from above, and otherwise the exact
minimum; a dropped chamber lies at or above the least value so far, which
is not below the floor, so no early return is lost.

First chamber.  Every v_j bounds the spin norm from above, as the spin
norm is their minimum.  So _spin_walk may walk any chamber first: a value
below the floor shows 12 spin below it, and a value at or above it only
seeds the least value, so no early return is lost.  The kernel's callers
walk j* first, the chamber where v = mu + 2 rho_c is dominant that the
lambda walk ends in.  The walk reflects at i_1, then i_2, ..., i_m, so it
ends at w^{-1} v with w = s_{i_1} ... s_{i_m}, and v is dominant in the
chamber w(Delta+), whose rho is rho_j* = w(rho) = s_{i_1}(... s_{i_m}(rho)).
_word_chamber replays the word backwards on rho's zeta-coordinates
(1, ..., 1) with the same Cartan updates, and looks the result up among
the 56 rho_j (_rho_chambers, built on first use); lambda_witness returns
j* with the lambda norm of the same walk.  (The tests check that j* is the
first chamber, in chamber order, where v is dominant.)  Why j* first: with
c = y - 1 >= 0, eta = mu - rho_n_j* + rho_c lies in the cone, so lambda_a =
eta; if also mu - rho_n_j* is K-dominant, p = mu - rho_n_j* and v_j* =
12 |eta|^2 = 12 lambda, 12 screening.NU_BOUND under the certificate floor.
Over the u-small census j* alone rejects all but 166 of the 21294 members.

A K-type is passed as its 7 coordinates [a..f, g] (see structure).
An infinitesimal character is 7 rationals in the fundamental-weight basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import lcm
from operator import add as int_add, itemgetter, mul, sub as int_sub

from .simplex import adjugate, hull_facets
from .structure import (
    RANK,
    ZERO,
    Vec,
    add,
    build_root_datum,
    dot,
    from_ambient,
    inner_times,
    is_k_type,
    neg,
    norm_sq,
    scale,
    sub,
    to_ambient,
)
from .weyl import Chamber, dominant_rep, enumerate_chambers

# ---------------------------------------------------------------------------
# cached integer tables


def _int(x: Fraction, what: str) -> int:
    assert x.denominator == 1, f"BUG: {what} = {x} is not an integer"
    return int(x)


@dataclass(frozen=True)
class _Tables:
    # per chamber j:
    # the K-type coordinates (a..f, g) of rho_n_j, integral (asserted).
    # Twice rho_n_j is the sum of the chamber's noncompact positive roots;
    # these 56 sums generate the orbit hull behind the u-small test.  Each
    # is K-dominant (every compact simple root is positive in every
    # chamber's system, so rho_j pairs >= 1 with its coroot), which the
    # facet lemma of usmall_facets relies on; asserted when the tables are
    # built.
    rho_n: tuple[tuple[int, ...], ...]
    # the spin kernel's lower bound L_j = norm12_ktype(mu) + lin_j . mu + k_j
    # (module docstring, spin kernel), stored as (lin_j..., k_j)
    spin_bound: tuple[tuple[int, ...], ...]
    rc12_rho_n: tuple[int, ...]  # 12*(rho_n_j, rho_c) = rho_n_j . rc12
    # the lambda walk (module docstring, lambda kernel): three times the
    # zeta-coordinates of mu + 2 rho_c, 3 <mu + 2 rho_c, alpha_i^vee>, is
    # row i of zeta3 dotted with (a..f, g, 1): 3(varpi_k, alpha_i),
    # (zeta, alpha_i) and 3(2 rho_c, alpha_i)
    zeta3: tuple[tuple[int, ...], ...]
    # row i of the Cartan matrix as its nonzero entries (k, A_ik),
    # A_ik = (alpha_i, alpha_k) = <alpha_k, alpha_i^vee>
    cartan: tuple[tuple[tuple[int, int], ...], ...]
    rc12: tuple[int, ...]  # 12*(varpi_i, rho_c)
    gram12: tuple[tuple[int, ...], ...]  # 12*(varpi_i, varpi_k)
    # the upper triangle of gram12 row by row, the entries off the diagonal
    # doubled: the 21 coefficients of the quadratic form a . gram12 a
    tri12: tuple[int, ...]
    # the K-type coordinates of the compact simple roots: (row i of the
    # Cartan matrix of k, 0), as every compact root is orthogonal to zeta
    gamma: tuple[tuple[int, ...], ...]
    # row i of gamma as its nonzero entries (k, n) among the first six: the
    # reflection p -> p - p_i gamma_i of the spin kernel's walk
    gamma_sparse: tuple[tuple[tuple[int, int], ...], ...]


def _check_spin_lemmas(rho_c: Vec, gamma, rc12) -> None:
    """The two facts the spin kernel's bound and cutoff rest on (module
    docstring): -rho_c lies in the W(K)-orbit of rho_c, and each compact
    simple root pairs with rho_c to 1, gamma_i . rc12 = 12."""
    assert dominant_rep(neg(rho_c), "K")[0] == rho_c, \
        "BUG: -rho_c is not in the W(K)-orbit of rho_c"
    for i, row in enumerate(gamma):
        assert sum(map(mul, row, rc12)) == 12, f"BUG: 12 (gamma_{i + 1}, rho_c) is not 12"


@lru_cache(maxsize=1)
def _tables() -> _Tables:
    d = build_root_datum()
    gram12 = tuple(
        tuple(inner_times(12, a, b) for b in d.varpi) for a in d.varpi
    )
    # rho_c = sum of the varpi_i: K-type coordinates (1, ..., 1, 0)
    rc12 = tuple(map(sum, gram12))
    norm12_rho_c = sum(rc12)
    assert norm12_rho_c == 936, f"BUG: 12|rho_c|^2 = {norm12_rho_c}"
    rho_n = []
    spin_bound = []
    rc12_rho_n = []
    for ch in enumerate_chambers():
        coords = tuple(_int(x, "rho_n coordinate") for x in from_ambient("varpi", ch.rho_n_j))
        assert min(coords[:6]) >= 0, f"BUG: rho_n_j not K-dominant: {ch.rho_n_j}"
        rho_n.append(coords)
        w12j = tuple(sum(map(mul, row, coords)) for row in gram12)  # 12 (varpi_i, rho_n_j)
        # 12|v|^2 = a . gram12 a + 2 g^2 (as 12 (zeta, zeta) / 9 = 2)
        norm12 = sum(map(mul, coords, w12j)) + 2 * coords[6] ** 2
        rc12_rho_n.append(sum(map(mul, coords, rc12)))
        spin_bound.append(
            tuple(2 * r - 2 * x for r, x in zip(rc12, w12j)) + (-4 * coords[6],)
            + (norm12 + norm12_rho_c - 2 * rc12_rho_n[-1],)
        )
    gamma = tuple(
        tuple(_int(x, "gamma coordinate") for x in from_ambient("varpi", g))
        for g in d.compact_simple
    )
    _check_spin_lemmas(d.rho_c, gamma, rc12)
    zeta3 = tuple(
        tuple(inner_times(3, w, a) for w in d.varpi)
        + (inner_times(1, d.zeta, a), inner_times(6, d.rho_c, a))
        for a in d.simple_roots
    )
    cartan = tuple(
        tuple((k, x) for k, b in enumerate(d.simple_roots) if (x := inner_times(1, a, b)))
        for a in d.simple_roots
    )
    return _Tables(
        rho_n=tuple(rho_n),
        spin_bound=tuple(spin_bound),
        rc12_rho_n=tuple(rc12_rho_n),
        zeta3=zeta3,
        cartan=cartan,
        rc12=rc12,
        gram12=gram12,
        tri12=tuple(gram12[i][k] * (1 if i == k else 2) for i in range(6) for k in range(i, 6)),
        gamma=gamma,
        gamma_sparse=tuple(tuple((k, n) for k, n in enumerate(row[:6]) if n) for row in gamma),
    )


@lru_cache(maxsize=1)
def chamber_weights() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Entry j, row i: the K-type coordinates (a..f, g) of w_j(zeta_i)
    (module docstring, chamber images)."""
    table = tuple(tuple(tuple(_int(x, "weight coordinate") for x in from_ambient("varpi", z))
                        for z in ch.weights) for ch in enumerate_chambers())
    assert all(min(r[:6]) >= 0 for rows in table for r in rows), "BUG: n_(k,i) < 0"
    return table


def chamber_images(y):
    """The K-type coordinates of w_j(sum y_i zeta_i) for each chamber j, in
    chamber order: the column sums sum_i y_i row_i of chamber_weights()."""
    y0, y1, y2, y3, y4, y5, y6 = y
    for rows in chamber_weights():
        yield tuple(y0 * c0 + y1 * c1 + y2 * c2 + y3 * c3 + y4 * c4 + y5 * c5 + y6 * c6
                    for c0, c1, c2, c3, c4, c5, c6 in zip(*rows))


@lru_cache(maxsize=1)
def weight_gram2() -> tuple[tuple[int, ...], ...]:
    """H = 2 (zeta_i, zeta_k): twice the Gram matrix of the fundamental
    weights, integral and entrywise positive for E7."""
    d = build_root_datum()
    w = d.fundamental_weights
    gram = tuple(tuple(inner_times(2, a, b) for b in w) for a in w)
    assert all(x > 0 for row in gram for x in row), "BUG: weight Gram must be positive"
    return gram


@lru_cache(maxsize=1)
def height_steps() -> tuple[int, ...]:
    """d_i = (zeta_i, 2 rho), the height of each fundamental weight: the
    row sums of weight_gram2(), as rho is the sum of the zeta_k."""
    steps = tuple(map(sum, weight_gram2()))
    assert steps == (34, 49, 66, 96, 75, 52, 27), f"BUG: height steps {steps}"
    return steps


@dataclass(frozen=True)
class _Face:
    members: tuple[int, ...]  # S, the support of a candidate minimizer
    others: tuple[int, ...]  # the indices outside S
    det: int  # det H_SS > 0
    adj: tuple[tuple[int, ...], ...]  # adj(H_SS), rows and columns in S order
    cross: tuple[tuple[int, ...], ...]  # H_kS for each k of others, columns in S order


@lru_cache(maxsize=None)
def _face(mask: int) -> _Face:
    """Integer solve data for the face S = {i : bit i of mask set}: the
    certified adjugate of H_SS, which is positive definite.  The lambda
    kernel and the cone_project oracle share it."""
    h = weight_gram2()
    members = tuple(i for i in range(RANK) if mask >> i & 1)
    det, adj = adjugate([[h[i][k] for k in members] for i in members])
    assert det > 0, "BUG: H is not positive definite"
    others = tuple(i for i in range(RANK) if not mask >> i & 1)
    cross = tuple(tuple(h[k][i] for i in members) for k in others)
    return _Face(members=members, others=others, det=det, adj=adj, cross=cross)


def ktype_ambient(coords) -> Vec:
    return to_ambient("varpi", coords)


def infchar_ambient(coords) -> Vec:
    return to_ambient("zeta", coords)


def infchar_norm_sq(coords) -> Fraction:
    """|lam|^2 for lam = sum c_i zeta_i: c^T H c / 2 with H = weight_gram2(),
    the value of norm_sq(infchar_ambient(c)) without the ambient vector.
    The form is evaluated on the integers z = m c, m the lcm of the
    denominators, and divided once: z^T H z / (2 m^2)."""
    m = lcm(*(c.denominator for c in coords))
    z = [c * m for c in coords]
    assert all(x.denominator == 1 for x in z), f"BUG: {m} does not clear {coords}"
    z = [int(x) for x in z]
    h = weight_gram2()
    return Fraction(sum(x * sum(map(mul, row, z)) for x, row in zip(z, h)), 2 * m * m)


def norm12_ktype(coords) -> int:
    """12 * |mu|^2 from the integer coordinates, exact: a . gram12 a + 2 g^2
    (as 12 (zeta, zeta) / 9 = 2), the form unpacked on its upper triangle
    tri12."""
    a, b, c, d, e, f, g = coords
    (q00, q01, q02, q03, q04, q05, q11, q12, q13, q14, q15,
     q22, q23, q24, q25, q33, q34, q35, q44, q45, q55) = _tables().tri12
    return (a * (q00 * a + q01 * b + q02 * c + q03 * d + q04 * e + q05 * f)
            + b * (q11 * b + q12 * c + q13 * d + q14 * e + q15 * f)
            + c * (q22 * c + q23 * d + q24 * e + q25 * f)
            + d * (q33 * d + q34 * e + q35 * f)
            + e * (q44 * e + q45 * f) + q55 * f * f + 2 * g * g)


# ---------------------------------------------------------------------------
# cone projection by definition (test oracle for the kernel below)


def cone_project(eta: Vec, chamber: Chamber) -> Vec:
    """Nearest point of the chamber's closed dominant cone, exactly.

    The cone is spanned by the chamber's seven fundamental weights z_k.
    Each generator subset S, largest first, proposes the face containing
    the answer: solve the Gram system there, then accept iff the
    coefficients are nonnegative and the residual pairs nonpositively with
    every generator.  With r_k = dot(eta, z_k) = 36 (eta, z_k) and H = 2G,
    the coefficients are x_S = num / (18 det H_SS), num = adj(H_SS) r_S,
    and the residual test is 18 det r_k <= dot(sum_S num_i z_i, z_k).
    """
    gens = chamber.weights
    r = [dot(eta, z) for z in gens]
    for size in range(RANK, -1, -1):
        for subset in combinations(range(RANK), size):
            face = _face(sum(1 << i for i in subset))
            rs = [r[i] for i in subset]
            num = [sum(map(mul, row, rs)) for row in face.adj]
            if any(v < 0 for v in num):
                continue
            point = ZERO
            for v, i in zip(num, subset):
                point = add(point, scale(v, gens[i]))
            den = 18 * face.det
            if all(den * rk <= dot(point, z) for rk, z in zip(r, gens)):
                return tuple(Fraction(x, den) for x in point)
    raise RuntimeError("BUG: no KKT subset accepted; the cone is simplicial so one must")


# ---------------------------------------------------------------------------
# lambda


@dataclass(frozen=True)
class LambdaDatum:
    lambda_a: Vec
    lambda_norm_sq: Fraction
    witness_chamber: int


def _allowable_chambers(mu):
    """The chambers whose positive system makes mu + 2 rho_c dominant, in
    chamber order, by definition: those whose seven simple roots all pair
    nonnegatively with it.  A generator, so a caller may stop at the first.
    lambda_datum projects in these; the tests check _witness_c against them."""
    v = add(ktype_ambient(mu), scale(2, build_root_datum().rho_c))
    for ch in enumerate_chambers():
        for a in ch.simples:
            if dot(v, a) < 0:
                break
        else:
            yield ch.index


def dominant_zeta(y, word: list | None = None) -> list:
    """The zeta-coordinates of the W(G)-dominant point of the orbit of
    sum y_i zeta_i: the walk of the module docstring, which reflects at the
    lowest i with y_i < 0 until there is none.  Given a list word, the walk
    appends to it each index it reflects at, in order."""
    cartan = _tables().cartan
    y = list(y)
    i = 0
    while i < RANK:
        yi = y[i]
        if yi < 0:
            for k, a in cartan[i]:
                y[k] -= yi * a
            if word is not None:
                word.append(i)
            i = 0
        else:
            i += 1
    return y


@lru_cache(maxsize=1)
def _rho_chambers() -> dict[tuple[int, ...], int]:
    """Each chamber's index keyed by the zeta-coordinates of rho_j,
    <rho_j, alpha_i^vee>: 56 distinct keys, rho's own (1, ..., 1) the key
    of chamber 0."""
    table = {tuple(_int(x, "rho_j coordinate") for x in from_ambient("zeta", ch.rho_j)): ch.index
             for ch in enumerate_chambers()}
    assert len(table) == 56 and table[(1,) * RANK] == 0, "BUG: rho_j keys"
    return table


def _word_chamber(word) -> int:
    """The chamber j* = w(Delta+) of a walk's word (i_1, ..., i_m), w =
    s_{i_1} ... s_{i_m} (module docstring, first chamber): the word replayed
    backwards on rho's zeta-coordinates gives those of rho_j* = w(rho)."""
    cartan = _tables().cartan
    r = [1] * RANK
    for i in reversed(word):
        ri = r[i]
        for k, a in cartan[i]:
            r[k] -= ri * a
    return _rho_chambers()[tuple(r)]


def _witness_c(coords, word: list | None = None) -> list[int]:
    """c = y - 1, y the zeta-coordinates of the W(G)-dominant representative
    of mu + 2 rho_c, read off zeta3 and walked by dominant_zeta (which
    records the walk's word in word when one is given)."""
    a0, a1, a2, a3, a4, a5, g = (int(v) for v in coords)
    y = []
    for row in _tables().zeta3:
        q, r = divmod(row[0] * a0 + row[1] * a1 + row[2] * a2 + row[3] * a3
                      + row[4] * a4 + row[5] * a5 + row[6] * g + row[7], 3)
        assert not r, f"BUG: {coords} + 2rho_c is off the weight lattice"
        y.append(q)
    return [v - 1 for v in dominant_zeta(y, word)]


def _project_in_chamber(coords, j: int) -> Vec:
    d = build_root_datum()
    ch = enumerate_chambers()[j]
    eta = sub(add(ktype_ambient(coords), scale(2, d.rho_c)), ch.rho_j)
    return cone_project(eta, ch)


def lambda_datum(mu) -> LambdaDatum:
    """Projection datum for the K-type, witnessed by the first chamber where
    mu + 2 rho_c is dominant; equality across all such chambers is asserted."""
    allow = list(_allowable_chambers(mu))
    if not allow:
        raise RuntimeError(f"BUG: no chamber makes {mu} + 2rho_c dominant")
    first = _project_in_chamber(mu, allow[0])
    for j in allow[1:]:
        other = _project_in_chamber(mu, j)
        assert other == first, (
            f"BUG: projection of {mu} differs between chambers {allow[0]} and {j}"
        )
    return LambdaDatum(
        lambda_a=first,
        lambda_norm_sq=norm_sq(first),
        witness_chamber=allow[0],
    )


def _lambda_sq(c) -> tuple[int, int]:
    """|lambda_a|^2 = n / d for the witness walk's c, as integers (n, d),
    d = 2 det H_SS > 0: num . r_S / (2 det) from the lambda kernel."""
    face, num, r = _lambda_kernel(c)
    return sum(v * r[i] for i, v in zip(face.members, num)), 2 * face.det


def lambda_norm_sq_fast(mu) -> Fraction:
    """Same value as lambda_datum(mu).lambda_norm_sq, from the integer
    kernel on the witness walk's c (a tested invariant)."""
    return Fraction(*_lambda_sq(_witness_c(mu)))


def lambda_witness(mu) -> tuple[int, int, int]:
    """(n, d, j*) from one witness walk: |lambda_a|^2 = n / d with d > 0,
    and j* the chamber where mu + 2 rho_c is dominant that the walk's word
    names (module docstring, first chamber), the spin kernel's first
    chamber."""
    word: list[int] = []
    n, d = _lambda_sq(_witness_c(mu, word))
    return n, d, _word_chamber(word)


# ---------------------------------------------------------------------------
# integer lambda kernel


def _kkt_numerators(face: _Face, r: list[int]) -> list[int] | None:
    """num = adj(H_SS) r_S if x_S = num / det satisfies the KKT conditions
    of the face, else None: num >= 0, and (H(x - c))_k >= 0 outside S, which
    is det * r_k <= H_kS num."""
    rs = [r[i] for i in face.members]
    num = [sum(map(mul, row, rs)) for row in face.adj]
    if num and min(num) < 0:
        return None
    det = face.det
    for k, row in zip(face.others, face.cross):
        if det * r[k] > sum(map(mul, row, num)):
            return None
    return num


def _lambda_kernel(c) -> tuple[_Face, list[int], list[int]]:
    """Nearest cone point for eta = sum c_i z_i (see the module docstring):
    the accepted face S, the numerators num with x_S = num / det(H_SS), and
    r = Hc.  Then |lambda_a|^2 = num . r_S / (2 det), height = d_S . num / det.

    Lemma: G is positive definite, so (c - x)^T G (c - x) is strictly convex
    and its minimizer over x >= 0 is the one point satisfying the KKT
    conditions; any accepted face yields it.  The face {i : c_i > 0} is
    tried first (over the u-small census and the height scan it is always
    the accepted one), then every face.
    """
    r = [sum(map(mul, row, c)) for row in weight_gram2()]
    guess = sum(1 << i for i, x in enumerate(c) if x > 0)
    for mask in chain((guess,), range(1 << RANK)):
        face = _face(mask)
        num = _kkt_numerators(face, r)
        if num is not None:
            return face, num, r
    raise RuntimeError("BUG: no face satisfies the KKT conditions; G is positive definite")


def _kernel_height(c) -> int:
    face, num, _ = _lambda_kernel(c)
    d = height_steps()
    h, rem = divmod(sum(d[i] * v for i, v in zip(face.members, num)), face.det)
    if rem or h < 0:
        raise RuntimeError(f"BUG: height at c = {c} came out {h} + {rem}/{face.det}")
    return h


# ---------------------------------------------------------------------------
# spin


def _walk_chamber(t: _Tables, a, j: int, low: int, sharp: int, stop):
    """Chamber j of the spin kernel: p = mu - rho_n_j on its first six
    coordinates (a those of mu) walked to the K-dominant representative on
    the pairings with the compact simple coroots, the running value
    12 |p + rho_c|^2 starting at L_j = low and raised by -24 p_i at each
    reflection.  Returns (v_j, p), or None as soon as the running value
    reaches stop (never when stop is None); a walk that ends asserts
    v_j >= L'_j = sharp."""
    p = list(map(int_sub, a, t.rho_n[j]))
    v = low
    i = 0
    while i < 6:
        pi = p[i]
        if pi < 0:
            v -= 24 * pi
            if stop is not None and v >= stop:
                return None
            for k, n in t.gamma_sparse[i]:
                p[k] -= pi * n
            i = 0
        else:
            i += 1
    assert v >= sharp, f"BUG: chamber {j} value {v} under its bound {sharp} at {a}"
    return v, p


def _spin_bounds(t: _Tables, chambers, mu, arc: int):
    """(j, L_j, L'_j) for each chamber j of chambers (module docstring, spin
    kernel): L_j = norm12_ktype(mu) + lin_j . mu + k_j, and with t_j =
    12 (y, rho_c) = arc - rnrc, L'_j = L_j + max(0, -4 t_j)."""
    a0, a1, a2, a3, a4, a5, g = mu
    m12 = norm12_ktype(mu)
    for j in chambers:
        l0, l1, l2, l3, l4, l5, l6, k = t.spin_bound[j]
        low = m12 + k + l0 * a0 + l1 * a1 + l2 * a2 + l3 * a3 + l4 * a4 + l5 * a5 + l6 * g
        rnrc = t.rc12_rho_n[j]
        yield j, low, (low + 4 * (rnrc - arc) if rnrc > arc else low)


def _spin_order(t: _Tables, mu, arc: int, first: int | None):
    """(j, L_j, L'_j) in the order the spin kernel walks the chambers:
    chamber first, when given, and then the others in ascending L'_j.  The
    56 bounds are built and sorted only when the walk asks for more than
    the first chamber."""
    if first is not None:
        yield from _spin_bounds(t, (first,), mu, arc)
    for entry in sorted(_spin_bounds(t, range(len(t.spin_bound)), mu, arc), key=itemgetter(2)):
        if entry[0] != first:
            yield entry


def _spin_walk(coords, floor: int, ties: bool,
               first: int | None = None) -> tuple[int, list[tuple[int, list[int]]]]:
    """The spin kernel (module docstring): the chambers in the order of
    _spin_order, each walked by _walk_chamber, a walk dropped once its
    running value shows the chamber can neither win nor tie.  Returns (v,
    [(j, first six coordinates of p)]): the first v_j below floor with its
    chamber, or else the minimum and its chambers, every one of them when
    ties is set."""
    t = _tables()
    mu = tuple(int(v) for v in coords)
    a = mu[:6]
    arc = sum(map(mul, a, t.rc12))  # 12 (mu, rho_c)
    slack = 1 if ties else 0
    best, achievers = None, []
    for j, low, sharp in _spin_order(t, mu, arc, first):
        if best is not None and sharp >= best + slack:
            break
        walked = _walk_chamber(t, a, j, low, sharp, None if best is None else best + slack)
        if walked is None:
            continue  # v_j >= best + slack: chamber j can neither win nor tie
        v, p = walked
        if v < floor:
            return v, [(j, p)]
        if best is None or v < best:
            best, achievers = v, [(j, p)]
        elif v == best:
            achievers.append((j, p))
    return best, achievers


def spin_sq12(coords, floor: int = 0, first: int | None = None) -> int:
    """12 * spin_norm_sq as a machine integer; the census-loop kernel.
    With a floor, the first chamber value below the floor comes back in
    place of the minimum: a result below the floor shows that 12 *
    spin_norm_sq is below it too, and a result at or above it is exact.
    The chamber first, when given, is walked before all others (module
    docstring, first chamber); the contract is the same for any chamber."""
    return _spin_walk(coords, floor, False, first)[0]


def spin_sq12_with_weights(coords) -> tuple[int, dict[int, tuple[int, ...]]]:
    """12 * spin_norm_sq and, for each achieving chamber j, the K-type
    coordinates of {mu - rho_n_j}: the integer form of the spin_datum
    oracle's (tests/oracles.py) spin_norm_sq and prv_weights.  The K-Weyl
    group fixes the central coordinate, so it is g(mu) - g(rho_n_j)."""
    t = _tables()
    best, achievers = _spin_walk(coords, 0, True)
    g = int(coords[6])
    return best, {j: tuple(p) + (g - t.rho_n[j][6],) for j, p in sorted(achievers)}


# ---------------------------------------------------------------------------
# u-small hull


@lru_cache(maxsize=1)
def usmall_facets() -> tuple[tuple[tuple[int, ...], int], ...]:
    """The facets u . mu <= h of the u-small hull that are not walls
    a_i >= 0, as (u, h) on the K-type coordinates (a..f, g); derived on the
    first query by hull_facets over the 56 vertices 2 rho_n_j.

    Lemma.  Let P = conv(V) + cone(-gamma_i), V the vertices: the points
    dominated by a convex combination of them.  A K-type lies in the hull
    of the W(k)-orbits of V iff it lies in P (each orbit point is dominated
    by its K-dominant representative, and a dominant point dominated by a
    hull point lies in the hull of that point's orbit).  Every u has
    u . gamma_i >= 0, so u . mu <= h holds on all of P.  The six walls and
    the 14 facets cut out conv(V), so P and {a >= 0} meet inside conv(V);
    V is K-dominant, so conv(V) lies in both.  On K-types, then, u-small
    means u . mu <= h for every facet."""
    t = _tables()
    vertices = [tuple(2 * x for x in r) for r in t.rho_n]
    walls, facets = [], []
    for h, *c in hull_facets(vertices):
        if h == 0 and sorted(c) == [0] * 6 + [1] and c[6] == 0:
            walls.append(c.index(1))
        else:
            facets.append((tuple(-x for x in c), h))
    assert sorted(walls) == list(range(6)) and len(facets) == 14, \
        f"BUG: the hull has {len(walls)} walls and {len(facets)} other facets, not 6 and 14"
    for u, h in facets:
        assert all(sum(map(mul, u, g)) >= 0 for g in t.gamma), f"BUG: facet {u} against a gamma"
        assert max(sum(map(mul, u, v)) for v in vertices) == h, f"BUG: facet {u}, {h}"
    return tuple(facets)


def is_usmall(mu) -> bool:
    """Whether the K-type (a_i >= 0, which the lemma of usmall_facets needs)
    lies in the hull of the W(k)-orbits of the 56 sums of noncompact
    positive roots (one per chamber, twice rho_n_j): u . mu <= h on each of
    usmall_facets(); False at the first facet that fails."""
    a, b, c, d, e, f, g = mu
    for (u0, u1, u2, u3, u4, u5, u6), h in usmall_facets():
        if u0 * a + u1 * b + u2 * c + u3 * d + u4 * e + u5 * f + u6 * g > h:
            return False
    return True


# ---------------------------------------------------------------------------
# Dirac inequality


def dirac_inequality_holds(lam, mu) -> str:
    """Compare |Lambda|^2 with the spin norm of mu: 'strict' when the spin
    side is strictly bigger, 'equality' exactly at equality (the candidate
    condition for a spin LKT contributing to Dirac cohomology), else
    'violated'."""
    lam_sq = infchar_norm_sq(lam)
    spin_sq = Fraction(spin_sq12(mu), 12)
    if lam_sq < spin_sq:
        return "strict"
    if lam_sq == spin_sq:
        return "equality"
    return "violated"


# ---------------------------------------------------------------------------
# bounded enumeration by height


@lru_cache(maxsize=1)
def scan_order() -> tuple[int, ...]:
    """The order in which the height scan fixes y_0..y_6: by descending
    height step d_i = height_steps() (module docstring, scan order).  The
    steps are distinct, so the order is unique (asserted)."""
    steps = height_steps()
    order = tuple(sorted(range(RANK), key=steps.__getitem__, reverse=True))
    assert all(steps[i] > steps[k] for i, k in zip(order, order[1:])), \
        f"BUG: scan order {order} for steps {steps}"
    return order


def _scan_reach(rows, steps) -> list:
    """The height scan's prune table for one chamber, its rows and steps
    given in scan order: reach[p][k] = max over levels p' >= p of
    n_{k,p'} / d_{p'} (module docstring, scan pruning) as an integer
    (numerator, denominator), the suffix maximum compared by
    cross-multiplication.  Past the last level reach is 0, so the cut
    there is the leaf condition a_k >= 0."""
    reach = [((0, 1),) * 6]
    for row, step in zip(reversed(rows), reversed(steps)):
        reach.append(tuple(
            (n, step) if n * den >= num * step else (num, den)
            for n, (num, den) in zip(row, reach[-1])
        ))
    reach.reverse()
    return reach


def _level_cuts(row, step: int, reach_next):
    """_count_range's constants for one level of one chamber, (num_k, den_k)
    = reach_next[k] the reach of the levels after it, split by the sign of
    c1 = n_{k,i} den_k - d_i num_k, which depends on neither the node nor
    the cap: (rising, falling, flat), rising holding (k, den_k, num_k, c1)
    for c1 > 0, falling (k, den_k, num_k, -c1) for c1 < 0 and flat
    (k, den_k, num_k) for c1 = 0."""
    rising, falling, flat = [], [], []
    for k, (r, (num, den)) in enumerate(zip(row, reach_next)):
        c1 = r * den - step * num
        if c1 > 0:
            rising.append((k, den, num, c1))
        elif c1 < 0:
            falling.append((k, den, num, -c1))
        else:
            flat.append((k, den, num))
    return tuple(rising), tuple(falling), tuple(flat)


@lru_cache(maxsize=1)
def scan_tables() -> tuple[tuple, ...]:
    """What each level of the height scan needs, for each chamber in
    chamber order, built on first use: (rows, reach, cuts), all in scan
    order, rows the chamber's chamber_weights() rows, reach their
    _scan_reach with height_steps(), and cuts each level's _level_cuts."""
    order = scan_order()
    steps = [height_steps()[i] for i in order]
    out = []
    for weights in chamber_weights():
        rows = tuple(weights[i] for i in order)
        reach = _scan_reach(rows, steps)
        cuts = tuple(_level_cuts(row, step, nxt) for row, step, nxt in zip(rows, steps, reach[1:]))
        out.append((rows, reach, cuts))
    return tuple(out)


def _count_range(mu, budget: int, step: int, cuts) -> tuple[int, int] | None:
    """The counts n at one level of the height scan whose child survives the
    prune cut, as an interval (lo, hi), or None when none does.

    Child n has a_k + n n_{k,i} and budget - n step, and survives iff
    (a_k + n n_{k,i}) den_k + (budget - n step) num_k >= 0 for every k, with
    (num_k, den_k) the reach of the next level (module docstring, scan
    pruning): each condition is c0 + n c1 >= 0, linear in n, so their
    intersection with 0 <= n <= budget // step is one interval.  cuts is the
    level's _level_cuts, which hold c1; only c0 = a_k den_k + budget num_k
    is computed here.  mu holds all seven coordinates; the cuts read the
    first six, so g takes no part."""
    rising, falling, flat = cuts
    for k, den, num in flat:
        if mu[k] * den + budget * num < 0:
            return None
    lo, hi = 0, budget // step
    for k, den, num, c1 in rising:
        c0 = mu[k] * den + budget * num
        if c0 < 0:
            lo = max(lo, -(c0 // c1))  # ceil(-c0 / c1)
    for k, den, num, c1 in falling:
        hi = min(hi, (mu[k] * den + budget * num) // c1)
    return (lo, hi) if lo <= hi else None


def enumerate_by_height(cap: int) -> dict[tuple[int, ...], int]:
    """All K-types with atlas height <= cap, mapped to their heights.

    Scans each chamber's dominant cone: a K-type with height <= cap has, in
    any chamber where mu + 2 rho_c is dominant, coordinates y_i =
    pair(mu + 2 rho_c, w alpha_i) >= 0 with sum d_i y_i <= cap + 2|rho|^2,
    because projection only raises the pairing sum.  The scan is complete:
    it fixes y level by level in scan_order() and walks at each level only
    the counts of _count_range, which drops exactly the branches that the
    prune bound (module docstring) shows to hold no K-type.  A height is
    measured once per y, which the height invariance allows: the kernel's
    result is kept for the call, keyed by y, so a K-type that a later
    chamber finds again costs a lookup at most.  The result holds the
    K-types in the order found: chamber by chamber, and within a chamber
    lexicographic in y taken in scan order.
    """
    two_rho_norm = sum(height_steps())  # (rho, 2 rho), rho = sum of the zeta_i
    assert two_rho_norm == 399, f"BUG: 2|rho|^2 = {two_rho_norm}"
    order = scan_order()
    steps = [height_steps()[i] for i in order]
    # y is kept in scan order, as are steps and the tables: y[where[i]] is y_i
    where = [order.index(i) for i in range(RANK)]
    budget_cap = cap + two_rho_norm
    out: dict[tuple[int, ...], int] = {}
    heights: dict[tuple[int, ...], int] = {}  # y -> kernel height, this call only
    tables = scan_tables()
    for ch in enumerate_chambers():
        rows, reach, cuts = tables[ch.index]
        # the cut at the root, y = 0; _count_range cuts every later node
        if any(-2 * den + budget_cap * num < 0 for num, den in reach[0]):
            continue

        def descend(p: int, budget: int, mu: tuple, y: tuple):
            # mu = sum over the levels so far of y_i row_i - 2 rho_c
            if p == RANK:
                if mu not in out:
                    assert is_k_type(mu), f"BUG: scan produced non-K-type {mu}"
                    if min(y) >= 1:
                        h = budget_cap - budget - two_rho_norm
                    else:
                        h = heights.get(y)
                        if h is None:
                            h = heights[y] = _kernel_height([y[q] - 1 for q in where])
                    if h <= cap:
                        out[mu] = h
                return
            step = steps[p]
            row = rows[p]
            span = _count_range(mu, budget, step, cuts[p])
            if span is None:
                return
            lo, hi = span
            mu = tuple(m + lo * r for m, r in zip(mu, row))
            budget -= lo * step
            for count in range(lo, hi + 1):
                descend(p + 1, budget, mu, y + (count,))
                mu = tuple(map(int_add, mu, row))
                budget -= step

        descend(0, budget_cap, (-2,) * 6 + (0,), ())
        del descend  # a self-calling closure is a cycle that would keep `out` alive
    return out
