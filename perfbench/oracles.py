"""Reference answers that do not run the code path under test.

Every routine here is written from the mathematics, not from polymix:

* ``fp_rref`` -- F_p row reduction with one vectorized update per pivot
  (polymix.gfp eliminates row by row).
* ``WindowSystem`` -- the Haar measure of a cylinder from the relations
  that fit inside the window's bounding box R.  A Laurent polynomial
  supported in a box is a multiple g*f of f only if N(g) + N(f) fits in
  the box, so the annihilator of the projection X|R is spanned by the
  translates u^m f lying inside R, X|R is the kernel of those rows, and
  X|W is its image under the coordinate projection onto W.
* ``divides`` -- Laurent divisibility by solving h*f = g on the box the
  Newton polytopes allow.
* ``hull_vertex_count`` -- scipy's Qhull in the affine hull of the points.
* ``redraw_rank`` -- the parallel-redrawing system written as all 2x2
  minors e_i x_j - e_j x_i, ranked modulo a large prime (exact input) or
  by SVD (float input).
* ``detect_scales`` -- every positive homothety of a unimodular simplex
  within a sup-norm cap of a tuple, by enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import gcd

import numpy as np

BIG_PRIME = 2_147_483_629  # < 2^31, so products of residues fit in int64


def fp_rref(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p; returns (R, pivot columns)."""
    m = np.array(matrix, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        others = np.flatnonzero(m[:, c])
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def fp_rank(matrix: np.ndarray, p: int) -> int:
    if matrix.size == 0:
        return 0
    return len(fp_rref(matrix, p)[1])


# -- measures -----------------------------------------------------------------


def _bounding_box(points):
    d = len(points[0])
    return [(min(w[i] for w in points), max(w[i] for w in points)) for i in range(d)]


def _relation_rows(terms: dict, box, index: dict) -> np.ndarray:
    """One row per translate m with m + S(f) inside the box."""
    d = len(box)
    smin = [min(e[i] for e in terms) for i in range(d)]
    smax = [max(e[i] for e in terms) for i in range(d)]
    spans = [range(lo - a, hi - b + 1) for (lo, hi), a, b in zip(box, smin, smax)]
    rows = []
    for m in product(*spans):
        row = np.zeros(len(index), dtype=np.int64)
        for e, c in terms.items():
            row[index[tuple(x + y for x, y in zip(m, e))]] = c
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(index))


class WindowSystem:
    """The relations of f inside the bounding box of a window, row-reduced."""

    def __init__(self, terms: dict, p: int, window):
        self.p = p
        self.window = [tuple(w) for w in window]
        box = _bounding_box(self.window)
        wset = set(self.window)
        self.cells = list(product(*[range(lo, hi + 1) for lo, hi in box]))
        # cells outside the window first, so rows pivoting inside W come last
        self.cells.sort(key=lambda c: c in wset)
        self.index = {c: i for i, c in enumerate(self.cells)}
        rows = _relation_rows(terms, box, self.index)
        self.red, self.pivots = fp_rref(rows, p) if rows.shape[0] else (rows, [])

    def measure(self, values) -> int | None:
        """Exponent m with measure p^-m, or None when the event is empty."""
        n_out = len(self.cells) - len(self.window)
        inner = [i for i, c in enumerate(self.pivots) if c >= n_out]
        # rows pivoting inside W have zeros on every outside column: they
        # span rowspace(A) restricted to functionals supported on W
        b = self.red[inner][:, [self.index[w] for w in self.window]]
        y = np.array([v % self.p for v in values], dtype=np.int64)
        if b.size and ((b @ y) % self.p).any():
            return None
        return len(self.window) - len(inner)

    def random_values(self, rng) -> list[int]:
        """Values of a random configuration of X on the window."""
        x = np.array([rng.randrange(self.p) for _ in self.cells], dtype=np.int64)
        if self.pivots:
            pivots = set(self.pivots)
            free = [c for c in range(len(self.cells)) if c not in pivots]
            sub = self.red[: len(self.pivots)][:, free]
            x[self.pivots] = (-(sub @ x[free])) % self.p
        return [int(x[self.index[w]]) for w in self.window]


def window_measure(terms: dict, p: int, window, values) -> int | None:
    return WindowSystem(terms, p, window).measure(values)


def merge(events) -> dict | None:
    """Union of shifted cylinders {cell: value}; None on a conflict."""
    out: dict = {}
    for shift, window, values in events:
        for w, v in zip(window, values):
            cell = tuple(a + b for a, b in zip(w, shift))
            if out.get(cell, v) != v:
                return None
            out[cell] = v
    return out


def measure_fraction(p: int, exponent: int | None) -> Fraction:
    return Fraction(0) if exponent is None else Fraction(1, p ** exponent)


def event_measure(terms: dict, p: int, events) -> Fraction:
    merged = merge(events)
    if merged is None:
        return Fraction(0)
    cells = sorted(merged)
    return measure_fraction(p, window_measure(terms, p, cells, [merged[c] for c in cells]))


# -- divisibility -------------------------------------------------------------


def divides(f_terms: dict, g_terms: dict, p: int) -> bool:
    """Is g a Laurent multiple of f over F_p?"""
    if not g_terms:
        return True
    d = len(next(iter(f_terms)))
    fmin = [min(e[i] for e in f_terms) for i in range(d)]
    fmax = [max(e[i] for e in f_terms) for i in range(d)]
    gmin = [min(e[i] for e in g_terms) for i in range(d)]
    gmax = [max(e[i] for e in g_terms) for i in range(d)]
    hbox = [(a - b, c - e) for a, b, c, e in zip(gmin, fmin, gmax, fmax)]
    if any(lo > hi for lo, hi in hbox):
        return False
    hcells = list(product(*[range(lo, hi + 1) for lo, hi in hbox]))
    gcells = list(product(*[range(lo, hi + 1) for lo, hi in zip(gmin, gmax)]))
    gindex = {c: i for i, c in enumerate(gcells)}
    a = np.zeros((len(gcells), len(hcells) + 1), dtype=np.int64)
    for j, h in enumerate(hcells):
        for e, c in f_terms.items():
            a[gindex[tuple(x + y for x, y in zip(h, e))], j] = c
    for e, c in g_terms.items():
        a[gindex[tuple(e)], -1] = c
    return fp_rank(a[:, :-1], p) == fp_rank(a, p)


# -- geometry -------------------------------------------------------------------


def affine_rank(points) -> int:
    pts = np.array(points, dtype=np.int64)
    diffs = pts[1:] - pts[0]
    return fp_rank(diffs % BIG_PRIME, BIG_PRIME) if len(diffs) else 0


def hull_vertex_count(points) -> int:
    """Number of extreme points, from Qhull in the points' affine hull."""
    from scipy.spatial import ConvexHull

    pts = np.array(sorted(set(map(tuple, points))), dtype=float)
    k = affine_rank(pts.astype(np.int64))
    if k == 0:
        return 1
    centered = pts - pts.mean(axis=0)
    if k < pts.shape[1]:
        _, _, vt = np.linalg.svd(centered)
        centered = centered @ vt[:k].T
    if k == 1:
        return 2
    return len(ConvexHull(centered).vertices)


def _det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def simplicial(points) -> bool:
    """Does every facet of the full-dimensional hull hold exactly d points?"""
    from scipy.spatial import ConvexHull

    pts = [tuple(int(x) for x in q) for q in sorted(set(map(tuple, points)))]
    d = len(pts[0])
    hull = ConvexHull(np.array(pts, dtype=float))
    for simplex in hull.simplices:
        a, *rest = (pts[i] for i in simplex)
        base = [[x - y for x, y in zip(b, a)] for b in rest]
        on = sum(1 for q in pts if _det(base + [[x - y for x, y in zip(q, a)]]) == 0)
        if on != d:
            return False
    return True


def redraw_rank(positions, edges) -> tuple[int, bool]:
    """(rank of the parallelism system, exact?) for a skeleton."""
    d = len(positions[0])
    exact = all(isinstance(x, (int, Fraction)) for q in positions for x in q)
    n = len(positions)
    rows = []
    for s, t in edges:
        e = [a - b for a, b in zip(positions[t], positions[s])]
        for i in range(d):
            for j in range(i + 1, d):
                row = [0] * (n * d)
                # e_i x_j - e_j x_i applied to q_t - q_s
                row[t * d + j] += e[i]
                row[t * d + i] -= e[j]
                row[s * d + j] -= e[i]
                row[s * d + i] += e[j]
                rows.append(row)
    if not rows:
        return 0, exact
    if exact:
        scaled = []
        for row in rows:
            den = 1
            for x in row:
                den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
            scaled.append([int(Fraction(x) * den) % BIG_PRIME for x in row])
        return fp_rank(np.array(scaled, dtype=np.int64), BIG_PRIME), True
    mat = np.array(rows, dtype=float)
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > 1e-9 * sv[0])), False


def detect_scales(verts, pts, cap_limit: int, scale_limit: int) -> tuple[int | None, set]:
    """Minimal sup-norm cap over positive homotheties of a unimodular simplex.

    A homothety places vertex i at P0 + h*(v_i - v_0) with h a positive
    integer (edges are primitive) and P0 integral; the best P0 per
    coordinate is the midpoint of the required range.  Returns the
    minimal cap (None above ``cap_limit``) and every scale reaching it.
    """
    d = len(verts[0])
    w = [[a - b for a, b in zip(v, verts[0])] for v in verts]
    best, scales = None, set()
    for assign in permutations(range(len(pts)), len(verts)):
        q = [pts[a] for a in assign]
        for h in range(1, scale_limit + 1):
            cap = 0
            for j in range(d):
                xs = [qi[j] - h * wi[j] for qi, wi in zip(q, w)]
                cap = max(cap, (max(xs) - min(xs) + 1) // 2)
                if cap > cap_limit:
                    break
            if cap > cap_limit:
                continue
            if best is None or cap < best:
                best, scales = cap, {h}
            elif cap == best:
                scales.add(h)
    return best, scales
