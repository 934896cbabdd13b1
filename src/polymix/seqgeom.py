"""Geometry of candidate non-mixing tuples.

A detector matches a tuple of lattice points -- up to per-point integer
perturbations bounded by K -- against a parallel redrawing of the Newton
polytope of f.  (A monomial's weight along an edge is its dot product
with ``polytope.outward_normal``.)

The detector is a verifier on given tuples.  It searches the caps
0, 1, ..., K in increasing order, each one exhaustively, and reports the
cap of its first match as K.  That K is the smallest per-point bound that
works: a match whose perturbations all stayed within a smaller cap would
have been found at that cap.  When the perturbed points are exactly
homothetic to the polytope it also reports the rational scale and
translation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import sub
from typing import NamedTuple, Sequence

from . import budgets
from .lattice import primitive
from .laurent import LaurentPoly, check_vectors
from .polytope import hull

IntVec = tuple[int, ...]


class RedrawMatch(NamedTuple):
    """A tuple matched, within perturbations of sup-norm <= K, to N(f).

    ``pairing`` gives, for each polytope edge (a, b), the tuple indices
    paired with vertices a and b; perturbations are indexed by tuple
    position (zero for unmatched extras); after adding them, each paired
    difference is an exact positive rational multiple of its polytope
    edge direction.
    ``homothety`` is the scale and translation that carry the vertices
    onto their perturbed points, or None for a redrawing that is not a
    dilation of N(f), which only a non-tight polytope admits.
    """

    points: tuple[IntVec, ...]
    pairing: tuple[tuple[tuple[int, int], tuple[int, int]], ...]  # (edge, point pair)
    perturbations: tuple[IntVec, ...]
    K: int
    homothety: tuple[Fraction, tuple[Fraction, ...]] | None


def _positive_step(q_from: IntVec, pt: IntVec, dir0: IntVec, cap: int) -> list[int]:
    """Integer steps s >= 1 with q_from + s*dir0 - pt inside the sup-norm cap."""
    lo, hi = 1, None
    for a, p_i, d_i in zip(q_from, pt, dir0):
        if d_i == 0:
            if abs(a - p_i) > cap:
                return []
            continue
        # need -cap <= a + s*d - p <= cap
        low = p_i - a - cap
        high = p_i - a + cap
        if d_i > 0:
            s_lo = -((-low) // d_i)  # ceil(low / d)
            s_hi = high // d_i
        else:
            s_lo = -((-high) // d_i)
            s_hi = low // d_i
        lo = max(lo, s_lo)
        hi = s_hi if hi is None else min(hi, s_hi)
    return list(range(lo, hi + 1))


def _homothety_of(
    verts: list[IntVec], positions: list[IntVec]
) -> tuple[Fraction, tuple[Fraction, ...]] | None:
    """Scale > 0 and translation with positions = scale*verts + t, if they exist."""
    v0, q0 = verts[0], positions[0]
    # the vertices are distinct: the scale is read off the first differing coordinate
    scale = next(Fraction(qi - q0i, vi - v0i) for v, q in zip(verts, positions)
                 for vi, v0i, qi, q0i in zip(v, v0, q, q0) if vi != v0i)
    t = tuple(q - scale * v for q, v in zip(q0, v0))
    if scale > 0 and all(qi == scale * vi + ti for v, q in zip(verts, positions)
                         for qi, vi, ti in zip(q, v, t)):
        return scale, t
    return None


def _is_positive_multiple(diff: IntVec, d0: IntVec) -> bool:
    """Is diff = s * d0 for an integer s >= 1?  (d0 is a nonzero edge direction.)"""
    x, y = next((x, y) for x, y in zip(diff, d0) if y)
    s = x // y
    return s >= 1 and all(s * b == a for a, b in zip(diff, d0))


def detect_redrawing(
    f: LaurentPoly,
    points: Sequence[Sequence[int]],
    tolerance_K: int,
) -> RedrawMatch | None:
    """Match a tuple of lattice points to a parallel redrawing of N(f).

    Walks the polytope's vertices breadth-first from a fixed root,
    assigning distinct tuple points and integer perturbations of
    sup-norm at most K so that every edge of N(f) is realized by a
    perturbed point pair parallel to it (positively oriented).  Caps are
    tried in increasing order, so the returned K is minimal; the search
    inside a cap is deterministic.  The ``detector`` budget bounds the
    placements tried over every cap, root and child, as they are tried.
    A failing cap is searched exhaustively, so cap c starts only after
    at least len(points) * sum_{c' < c} (2c' + 1)^d root placements have
    been counted; that bounds a hopeless K without refusing a tuple that
    matches early.
    """
    if tolerance_K < 0:
        raise ValueError("tolerance must be >= 0")
    check_vectors(points, f.dim, "point")
    poly = hull(f.support())
    if poly.affine_dim < 2:
        raise ValueError(
            f"detector needs a polytope of affine dimension >= 2, got {poly.affine_dim}"
        )
    pts = [tuple(q) for q in points]
    verts = poly.vertices
    v = len(verts)
    if len(pts) < v:
        raise ValueError(f"tuple has {len(pts)} points, polytope has {v} vertices")

    dirs = {(a, b): primitive(tuple(map(sub, verts[b], verts[a]))) for a, b in poly.edges}
    dirs.update({(b, a): tuple(-x for x in w) for (a, b), w in list(dirs.items())})
    adjacency: dict[int, list[int]] = {i: [] for i in range(v)}
    for a, b in dirs:
        adjacency[a].append(b)
    order = [0]
    parent: dict[int, int] = {}
    for cur in order:
        for nxt in sorted(adjacency[cur]):
            if nxt != 0 and nxt not in parent:
                parent[nxt] = cur
                order.append(nxt)

    # each edge off the tree closes a cycle; it is checked when the later
    # of its two vertices in ``order`` is placed
    rank = {vx: i for i, vx in enumerate(order)}
    closing: dict[int, list[tuple[int, IntVec]]] = {vx: [] for vx in range(v)}
    for a, b in poly.edges:
        if parent.get(b) != a and parent.get(a) != b:
            first, last = sorted((a, b), key=rank.__getitem__)
            closing[last].append((first, dirs[(first, last)]))

    charge = budgets.Meter("detector").charge

    def search(cap: int) -> tuple[list[int], list[IntVec]] | None:
        assigned: list[int] = [0] * v
        position: list[IntVec] = [()] * v
        used: set[int] = set()

        def candidates(vx: int):
            if vx == order[0]:
                return (
                    (t, tuple(a + b for a, b in zip(pt, delta)))
                    for t, pt in enumerate(pts)
                    for c in range(cap + 1)
                    # lazily, by sup-norm then lexicographically: a cap's box
                    # is never built ahead of the placements that count it
                    for delta in product(range(-c, c + 1), repeat=poly.dim)
                    if max(map(abs, delta)) == c
                )
            qa, d0 = position[parent[vx]], dirs[(parent[vx], vx)]
            # caps are tried in increasing order, so K stays minimal;
            # within a cap the smallest positive multiple wins
            return (
                (t, tuple(a + s * b for a, b in zip(qa, d0)))
                for t, pt in enumerate(pts)
                if t not in used
                for s in _positive_step(qa, pt, d0, cap)
            )

        def place(depth: int) -> bool:
            if depth == v:
                return True
            vx = order[depth]
            for t, q in candidates(vx):
                charge(1)
                if all(
                    _is_positive_multiple(tuple(map(sub, q, position[w])), d0)
                    for w, d0 in closing[vx]
                ):
                    assigned[vx], position[vx] = t, q
                    used.add(t)
                    if place(depth + 1):
                        return True
                    used.discard(t)
            return False

        return (assigned, position) if place(0) else None

    for cap in range(tolerance_K + 1):
        result = search(cap)
        if result is None:
            continue
        assignment, positions = result
        perturbations = [(0,) * poly.dim] * len(pts)
        for vx, t in enumerate(assignment):
            perturbations[t] = tuple(map(sub, positions[vx], pts[t]))
        pairing = tuple(((a, b), (assignment[a], assignment[b])) for a, b in poly.edges)
        return RedrawMatch(tuple(pts), pairing, tuple(perturbations), cap,
                           _homothety_of(verts, positions))
    return None

