import itertools
import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e7dirac.norms import _face, weight_gram2
from e7dirac.simplex import adjugate, hull_facets

from oracles import lp_solve


def solve_square(cols, rhs):
    """Unique solution of the column system, or None if singular/inconsistent."""
    m, k = len(rhs), len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(rhs[i])] for i in range(m)]
    row = 0
    pivots = []
    for col in range(k):
        p = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if p is None:
            return None
        aug[row], aug[p] = aug[p], aug[row]
        pivots.append(col)
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col] / aug[row][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        row += 1
    for r in range(row, m):
        if aug[r][k] != 0:
            return None
    return [aug[i][k] / aug[i][pivots[i]] for i in range(k)]


def feasible_bruteforce(rows, rhs):
    """Feasibility by basic-solution enumeration: any nonempty {x>=0: Ax=b}
    contains a solution supported on independent columns."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    if all(b == 0 for b in rhs):
        return True
    for k in range(1, m + 1):
        for subset in itertools.combinations(range(n), k):
            cols = [[rows[i][j] for i in range(m)] for j in subset]
            x = solve_square(cols, rhs)
            if x is not None and all(v >= 0 for v in x):
                return True
    return False


def check_witness(rows, rhs, x):
    assert all(v >= 0 for v in x), f"BUG: negative witness entry in {x}"
    for row, b in zip(rows, rhs):
        assert sum(Fraction(a) * v for a, v in zip(row, x)) == b


def rank(rows):
    aug = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col] / aug[r][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        r += 1
    return r


def test_single_equation_feasible():
    x = lp_solve([[1, 1]], [1])
    check_witness([[1, 1]], [1], x)


def test_negative_rhs_feasible():
    rows, rhs = [[1, -1]], [-1]
    x = lp_solve(rows, rhs)
    check_witness(rows, rhs, x)


def test_single_equation_infeasible():
    assert lp_solve([[1]], [-1]) is None
    assert lp_solve([[1, 2]], [-1]) is None
    assert lp_solve([[0]], [1]) is None


def test_two_by_two():
    rows = [[2, 3], [1, 1]]
    assert lp_solve(rows, [7, 3]) is not None
    assert lp_solve([[1, 1], [1, 1]], [10, 3]) is None
    assert lp_solve([[1, 1], [1, 1]], [1, 1]) is not None


def test_equality_forcing_negative_coordinate():
    # x - y = 1 and x + y = 0 forces y = -1/2
    assert lp_solve([[1, -1], [1, 1]], [1, 0]) is None


def test_zero_system():
    assert lp_solve([], []) is not None
    assert lp_solve([[0, 0]], [0]) is not None


def test_redundant_rows():
    rows = [[1, 2, 1], [2, 4, 2], [0, 1, 1]]
    rhs = [4, 8, 1]
    x = lp_solve(rows, rhs)
    check_witness(rows, rhs, x)


def test_convex_combination_membership():
    # b inside the simplex spanned by columns iff feasible with sum-to-one row
    cols = [[0, 0], [3, 0], [0, 3]]
    rows = [
        [c[0] for c in cols],
        [c[1] for c in cols],
        [1, 1, 1],
    ]
    assert lp_solve(rows, [1, 1, 1]) is not None
    assert lp_solve(rows, [3, 3, 1]) is None
    assert lp_solve(rows, [3, 0, 1]) is not None
    assert lp_solve(rows, [3, 1, 1]) is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_nonnegative_combinations_are_feasible(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 6))
    rows = [
        [data.draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(m)
    ]
    x0 = [data.draw(st.integers(0, 4)) for _ in range(n)]
    rhs = [sum(a * v for a, v in zip(row, x0)) for row in rows]
    x = lp_solve(rows, rhs)
    assert x is not None, f"BUG: constructed-feasible system reported infeasible {rows} {rhs}"
    check_witness(rows, rhs, x)


def test_random_systems_witness_consistency():
    rng = random.Random(13)
    feasible_seen = infeasible_seen = 0
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-6, 6) for _ in range(m)]
        x = lp_solve(rows, rhs)
        if x is None:
            infeasible_seen += 1
        else:
            feasible_seen += 1
            check_witness(rows, rhs, x)
    assert feasible_seen and infeasible_seen, "BUG: sample should exercise both outcomes"


def test_against_basic_solution_enumeration():
    rng = random.Random(4242)
    disagreements = []
    for _ in range(150):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-5, 5) for _ in range(m)]
        got = lp_solve(rows, rhs) is not None
        want = feasible_bruteforce(rows, rhs)
        if got != want:
            disagreements.append((rows, rhs, got, want))
    assert not disagreements, f"BUG: simplex disagrees with enumeration: {disagreements[:3]}"


def test_zero_artificial_left_in_the_basis():
    # phase 1 ends after one pivot (x2 enters row 0) with the artificial of
    # row 1 basic at zero; x is read off the real basic columns alone
    for sign in (1, -1):
        assert lp_solve([[1, 2, 0], [0, 0, sign]], [1, 0]) == [0, Fraction(1, 2), 0]


# ---- the exact solver ----


def cofactor_det(a):
    """det by cofactor expansion along the first row, the definition."""
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


def cofactor_adjugate(m):
    """det and adjugate by cofactor expansion, the definition."""
    det = cofactor_det
    n = len(m)
    minor = lambda r, c: [row[:c] + row[c + 1:] for k, row in enumerate(m) if k != r]
    return det(m), tuple(tuple((-1) ** (r + c) * det(minor(c, r)) for c in range(n))
                         for r in range(n))


def test_adjugate_with_row_swaps():
    # a zero pivot at the start, and one that appears after the first step
    for m in ([[0, 1], [1, 0]], [[1, 2, 3], [2, 4, 5], [3, 5, 6]],
              [[0, 2, 1], [3, 0, 0], [1, 1, 4]]):
        det, adj = adjugate(m)
        assert det < 0
        assert (det, adj) == cofactor_adjugate(m)
    assert adjugate([]) == (1, ())


def test_adjugate_random_against_cofactors():
    rng = random.Random(91)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        det, adj = cofactor_adjugate(m)
        if det:
            assert adjugate(m) == (det, adj), f"BUG: adjugate of {m}"


def test_adjugate_of_every_face():
    # the lambda kernel's faces H_SS, H = 2 (zeta_i, zeta_k): positive definite
    h = weight_gram2()
    for mask in range(1 << 7):
        members = [i for i in range(7) if mask >> i & 1]
        m = [[h[i][k] for k in members] for i in members]
        det, adj = cofactor_adjugate(m)
        assert det > 0 and adjugate(m) == (det, adj), f"BUG: adjugate of face {members}"
        face = _face(mask)
        assert (face.det, face.adj) == (det, adj)


def test_adjugate_rejects_singular():
    with pytest.raises(RuntimeError, match="BUG: singular"):
        adjugate([[1, 2], [2, 4]])
    with pytest.raises(RuntimeError, match="BUG: singular"):
        adjugate([[1, 2, 3], [4, 5, 6], [7, 8, 9]])


# ---- hull facets ----


def facets_by_definition(points):
    """The hull's facets as hull_facets states them, by trying every n of
    the points: the row c through them, c_k = (-1)^k times the minor of
    the lifted rows without column k (so c . (1, q) is the determinant of
    q stacked on them), is a facet when it is nonzero and one sign holds
    at every point."""
    lifted = [(1, *p) for p in points]
    n = len(points[0])
    out = set()
    for subset in itertools.combinations(lifted, n):
        c = [(-1) ** k * cofactor_det([row[:k] + row[k + 1:] for row in subset])
             for k in range(n + 1)]
        vals = [sum(map(mul, c, q)) for q in lifted]
        if any(c) and (min(vals) >= 0 or max(vals) <= 0):
            sign = 1 if min(vals) >= 0 else -1
            g = gcd(*c)
            out.add(tuple(sign * x // g for x in c))
    return tuple(sorted(out))


def test_hull_facets_of_a_cube_with_inner_points():
    cube = list(itertools.product((0, 2), repeat=3))
    points = [(1, 1, 1), (1, 0, 1)] + cube
    want = tuple(sorted([(0, *e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
                        + [(2, *e) for e in ((-1, 0, 0), (0, -1, 0), (0, 0, -1))]))
    assert hull_facets(points) == want == facets_by_definition(points)


def test_hull_facets_random_against_definition():
    rng = random.Random(53)
    for trial in range(40):
        n = 3 if trial < 30 else 4
        points = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(5, 11))]
        assert rank([(1, *p) for p in points]) == n + 1
        assert hull_facets(points) == facets_by_definition(points), f"BUG: facets of {points}"


def test_hull_facets_rejects_a_flat_set():
    with pytest.raises(ValueError):
        hull_facets([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
