"""Exact feasibility testing for small linear programs.

Decides whether {x >= 0 : Ax = b} is nonempty for integer A, b using a
phase-1 simplex.  The tableau is kept integer with Bareiss-style pivots
(every update divides exactly by the previous pivot), so there is no
rounding anywhere and no Fraction overhead in the inner loop.  The
entering variable follows Dantzig's rule (most negative reduced cost) for
the first 50 pivots and Bland's rule (lowest index) after that, so a run
that could cycle ends under Bland's rule, which rules cycling out.  The
ratio test breaks ties by the lowest basic variable index.

Artificial columns are withdrawn once they leave the basis; a zero-value
solution has all artificials at zero anyway, so the answer is unaffected.
"""

from __future__ import annotations

from fractions import Fraction


def lp_feasible(rows: list[list[int]], rhs: list[int]) -> bool:
    return lp_feasible_witness(rows, rhs) is not None


def lp_feasible_witness(rows: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """A nonnegative exact solution of Ax = b, or None if there is none."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    assert all(len(r) == n for r in rows), "BUG: ragged constraint matrix"
    assert len(rhs) == m

    # tableau rows: n real columns, m artificial columns, rhs column
    tab: list[list[int]] = []
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
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
        piv = tab[leave][enter]
        leaving_var = basis[leave]
        basis[leave] = enter
        if leaving_var >= n:
            alive[leaving_var] = False
        prow = tab[leave]
        for row in allrows:
            if row is prow:
                continue
            f = row[enter]
            if f:
                row[:] = [(piv * a - f * b) // denom for a, b in zip(row, prow)]
            elif piv != denom:
                row[:] = [(piv * a) // denom for a in row]
        denom = piv
        pivots += 1

    if obj[last] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tab[i][n + m], denom)
        elif tab[i][n + m] != 0:
            return None  # artificial stuck in the basis at a nonzero value
    return x
