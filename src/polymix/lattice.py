"""Integer lattice utilities.

Small exact helpers shared by the polytope and frame-construction code:
primitivity, Hermite-style column reduction with a tracked unimodular
transform, completion of a primitive vector to a basis of Z^d, and exact
determinants and ranks of small integer (or rational) matrices.
"""

from __future__ import annotations

from math import gcd, lcm

IntVec = tuple[int, ...]


def content(v) -> int:
    """gcd of the absolute components (0 for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def is_primitive(v) -> bool:
    return content(v) == 1


def primitive(v) -> IntVec:
    """Divide out the content; errors on the zero vector."""
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def int_det(matrix: list[list[int]]) -> int:
    """Exact determinant via fraction-free Bareiss elimination (1 when empty)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def int_rank(rows) -> int:
    """Exact rank of a matrix of integers or rationals, fraction-free.

    Each row is first scaled by the lcm of its denominators, which leaves
    the rank unchanged.  Elimination then keeps every row integral: a
    row r is replaced by piv * r - r[col] * pivot_row and divided by its
    content, which keeps the entries small; rows that vanish are dropped.
    """
    work = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        r = [x.numerator * (den // x.denominator) for x in row]
        if any(r):
            work.append(r)
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        top = work[rank]
        a = top[col]
        rest = []
        for r in work[rank + 1:]:
            b = r[col]
            if b:
                r = [a * x - b * y for x, y in zip(r, top)]
                g = gcd(*r)
                if g == 0:
                    continue
                if g > 1:
                    r = [x // g for x in r]
            rest.append(r)
        rank += 1
        work[rank:] = rest
        if not rest:
            break
    return rank


def column_reduce(rows: list[IntVec], dim: int) -> tuple[list[list[int]], int]:
    """Column-echelon reduction by a unimodular transform.

    Returns (V, rank) with V a unimodular dim x dim matrix, stored as a
    list of columns, such that for every input row r the vector
    r @ V has zeros beyond position rank-1.  The map x -> first `rank`
    entries of x @ V is then a bijection between the lattice points of
    the rows' linear span and Z^rank, which is what the degenerate-hull
    projection needs.
    """
    acols = [[row[j] for row in rows] for j in range(dim)]
    vcols = [[int(i == j) for i in range(dim)] for j in range(dim)]
    nrows = len(rows)
    fixed = 0
    for r in range(nrows):
        if fixed == dim:
            break
        active = [j for j in range(fixed, dim) if acols[j][r] != 0]
        while len(active) > 1:
            active.sort(key=lambda j: abs(acols[j][r]))
            a = active[0]
            still = [a]
            for b in active[1:]:
                q = acols[b][r] // acols[a][r]
                for i in range(nrows):
                    acols[b][i] -= q * acols[a][i]
                for i in range(dim):
                    vcols[b][i] -= q * vcols[a][i]
                if acols[b][r] != 0:
                    still.append(b)
            active = still
        if active:
            j = active[0]
            acols[fixed], acols[j] = acols[j], acols[fixed]
            vcols[fixed], vcols[j] = vcols[j], vcols[fixed]
            fixed += 1
    return vcols, fixed


def apply_columns(vcols: list[list[int]], x, count: int | None = None) -> IntVec:
    """x @ V for V given as columns; optionally only the first `count` entries."""
    upto = len(vcols) if count is None else count
    return tuple(sum(xi * col[i] for i, xi in enumerate(x)) for col in vcols[:upto])


def combine_columns(vcols: list[list[int]], weights, dim: int) -> IntVec:
    """Integer combination sum_j weights[j] * column_j."""
    return tuple(
        sum(w * vcols[j][i] for j, w in enumerate(weights)) for i in range(dim)
    )


def complete_to_unimodular(v: IntVec) -> list[list[int]]:
    """Extend a primitive vector to a basis of Z^d.

    Returns a row-major matrix M with |det M| = 1 whose first *column*
    is v.  Built by reducing v to e_1 with elementary row operations and
    accumulating their inverses.
    """
    if not is_primitive(v):
        raise ValueError(f"{v} is not primitive")
    d = len(v)
    w = list(v)
    m = [[int(i == j) for j in range(d)] for i in range(d)]  # columns tracked below

    def col_add(dst: int, src: int, q: int) -> None:
        for i in range(d):
            m[i][dst] += q * m[i][src]

    # w_b -= q * w_a pairs with column_a += q * column_b on the inverse
    while True:
        nz = [i for i in range(d) if w[i] != 0]
        if len(nz) == 1:
            break
        nz.sort(key=lambda i: abs(w[i]))
        a = nz[0]
        for b in nz[1:]:
            q = w[b] // w[a]
            w[b] -= q * w[a]
            col_add(a, b, q)
    t = next(i for i in range(d) if w[i] != 0)
    if w[t] < 0:
        w[t] = -w[t]
        for i in range(d):
            m[i][t] = -m[i][t]
    if t != 0:
        w[0], w[t] = w[t], w[0]
        for i in range(d):
            m[i][0], m[i][t] = m[i][t], m[i][0]
    assert w[0] == 1 and all(x == 0 for x in w[1:])
    return m
