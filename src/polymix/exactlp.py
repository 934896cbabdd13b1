"""Exact feasibility tests for small linear programs.

Phase-1 simplex with Bland's rule in integer-preserving form, sized for
convex-combination membership queries on a few dozen points.  No
floating point and no fractions: every tableau entry stays an integer.
The hull itself does not use it: it serves ``polytope.is_vertex``/
``point_in_hull`` and the tests as an oracle independent of the integer
beneath-beyond hull.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence


def equality_feasible(a_rows: list[list], b: list) -> bool:
    """Does {x >= 0 : A x = b} have a point?  Entries are integers or Fractions.

    Each equation is first scaled by the lcm of its denominators.  The
    phase-1 problem minimizes the sum of artificial variables, starting
    from the identity basis they form; feasible iff the optimum is zero.
    The tableau is kept as det(B) times B^-1 [A | b] (Edmonds): each pivot
    replaces row i by (piv * row_i - row_i[c] * pivot_row) / det(B), an
    exact integer division, and the pivot becomes the new det(B) > 0.
    Bland's rule guarantees termination.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    width = n + m  # tableau columns: n structural + m artificial, then rhs
    tableau = []
    for i, (row, rhs) in enumerate(zip(a_rows, b)):
        den = lcm(*(x.denominator for x in [*row, rhs]))
        sign = -1 if rhs < 0 else 1
        scaled = [sign * x.numerator * (den // x.denominator) for x in [*row, rhs]]
        tableau.append(scaled[:n] + [int(i == j) for j in range(m)] + scaled[n:])
    basis = [n + i for i in range(m)]
    # phase-1 objective row: reduced costs for minimizing the sum of the
    # artificials, which start basic with reduced cost 0
    obj = [-sum(col) for col in zip(*tableau)] if m else [0]
    obj[n:width] = [0] * m
    det = 1

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                if leaving is None:
                    leaving = i
                    continue
                best = tableau[leaving]
                # compare rhs / coeff with the best ratio so far
                lhs, rhs = tableau[i][width] * best[entering], best[width] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise RuntimeError("phase-1 simplex reported unbounded")
        top = tableau[leaving]
        piv = top[entering]
        for i in range(m):
            if i != leaving:
                f = tableau[i][entering]
                tableau[i] = [(piv * x - f * y) // det for x, y in zip(tableau[i], top)]
        f = obj[entering]
        obj = [(piv * x - f * y) // det for x, y in zip(obj, top)]
        det = piv
        basis[leaving] = entering

    return obj[width] == 0


def in_convex_hull(q: Sequence[int], points: Sequence[Sequence[int]]) -> bool:
    """Exact test whether q is a convex combination of the given points."""
    pts = list(points)
    if not pts:
        return False
    a_rows = [[p[i] for p in pts] for i in range(len(q))]
    a_rows.append([1] * len(pts))
    return equality_feasible(a_rows, list(q) + [1])
