"""Exact feasibility tests for small linear programs.

Phase-1 simplex over Fraction arithmetic with Bland's rule, sized for
convex-combination membership queries on a few dozen points.  No
floating point anywhere.  The hull itself does not use it: it serves
``polytope.is_vertex``/``point_in_hull`` and the tests as an oracle
independent of the integer beneath-beyond hull.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def equality_feasible(a_rows: list[list[Fraction]], b: list[Fraction]) -> bool:
    """Does {x >= 0 : A x = b} have a point?

    Minimizes the sum of artificial variables; feasible iff the optimum
    is zero.  Bland's rule guarantees termination.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    rows = []
    rhs = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-x for x in a_rows[i]])
            rhs.append(-b[i])
        else:
            rows.append(list(a_rows[i]))
            rhs.append(b[i])
    # tableau columns: n structural + m artificial
    width = n + m
    tableau = []
    for i in range(m):
        row = rows[i] + [ZERO] * m
        row[n + i] = ONE
        row.append(rhs[i])
        tableau.append(row)
    basis = [n + i for i in range(m)]
    # phase-1 objective row: reduced costs for minimizing sum of artificials
    obj = [ZERO] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            obj[j] -= tableau[i][j]
    # artificials start basic with cost 1, so their reduced costs are 0
    for i in range(m):
        obj[n + i] = ZERO

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        ratio = None
        leaving = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                r = tableau[i][width] / coeff
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leaving]):
                    ratio = r
                    leaving = i
        if leaving is None:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise RuntimeError("phase-1 simplex reported unbounded")
        piv = tableau[leaving][entering]
        tableau[leaving] = [x / piv for x in tableau[leaving]]
        for i in range(m):
            if i != leaving and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leaving])]
        if obj[entering] != 0:
            f = obj[entering]
            obj = [x - f * y for x, y in zip(obj, tableau[leaving])]
        basis[leaving] = entering

    return obj[width] == 0


def in_convex_hull(q: Sequence[int], points: Sequence[Sequence[int]]) -> bool:
    """Exact test whether q is a convex combination of the given points."""
    pts = list(points)
    if not pts:
        return False
    d = len(q)
    a_rows = [[Fraction(p[i]) for p in pts] for i in range(d)]
    a_rows.append([ONE] * len(pts))
    b = [Fraction(x) for x in q] + [ONE]
    return equality_feasible(a_rows, b)
