"""Parallel redrawings of a polytope 1-skeleton and the tightness test.

A redrawing assigns new positions q_i to the skeleton's vertices so that
every edge stays parallel to the corresponding original edge.  Its
space always contains the translations and the global scaling, so its
dimension is at least d+1; the skeleton is *tight* exactly when nothing
else survives, i.e. when the dimension equals d+1 and every redrawing is
a homothety.

Two arithmetic paths.  For integer/Fraction positions (the
lattice-polytope pipeline) the space is ranked in edge-scale
coordinates: a redrawing moves each edge e to lambda_e e, so it is one
translation per connected component and one scale per edge, the scales
of a triangle with non-parallel edges are equal, and for every edge off
a spanning forest the redrawn tree path between its ends must be
parallel to it.  That system has one column per class of tree edges
joined by such triangles, often one or two on a polytope, and a
fraction-free integer rank (``lattice.int_rank``).  For float positions
(irrational catalog solids such as the icosahedron) the constraints are
written over the d*V vertex coordinates, d - 1 minors per edge
(``constraint_rows``), and ranked by SVD with the relative tolerance
``TOLERANCE``, which float results report.
Both systems count against the ``redraw`` budget before they are ranked,
and so does the triangle scan that forms the exact path's scale classes.
"""

from __future__ import annotations

import reprlib
from collections import namedtuple
from math import isfinite
from numbers import Rational
from typing import NamedTuple, Sequence

from . import budgets
from .errors import InternalInconsistencyError
from .lattice import int_rank
from .laurent import check_vectors
from .polytope import LatticePolytope

TOLERANCE = 1e-9


class Skeleton(namedtuple("Skeleton", "dim positions edges")):
    """Positions in R^dim (finite ints, floats or rationals) and edges as int index pairs."""

    __slots__ = ()

    def __new__(cls, dim: int, positions: Sequence[Sequence], edges: Sequence[Sequence[int]]):
        if type(dim) is not int:
            raise ValueError(f"ambient dimension {reprlib.repr(dim)} is not an integer")
        if dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        for p in positions:
            if not isinstance(p, (tuple, list)) or len(p) != dim:
                raise ValueError(f"position {reprlib.repr(p)} does not have dimension {dim}")
            if not all(type(x) is int or isinstance(x, float) and isfinite(x)
                       or type(x) is not bool and isinstance(x, Rational) for x in p):
                raise ValueError(f"position {reprlib.repr(p)} is not a vector of finite numbers")
        positions = tuple(map(tuple, positions))
        if len(set(positions)) != len(positions):
            raise ValueError("repeated vertex positions")
        check_vectors(edges, 2, "edge")
        edges = tuple(map(tuple, edges))
        n = len(positions)
        for s, t in edges:
            if s == t:
                raise ValueError(f"edge ({s},{t}) has equal endpoints")
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"edge ({s},{t}) references a missing vertex")
            if all(a == b for a, b in zip(positions[s], positions[t])):
                raise ValueError(f"edge ({s},{t}) has zero length")
        return super().__new__(cls, dim, positions, edges)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks as well


def make_skeleton(dim: int, positions: Sequence[Sequence], edges: Sequence[Sequence[int]]) -> Skeleton:
    return Skeleton(dim, tuple(positions), tuple(edges))


def skeleton_from_polytope(poly: LatticePolytope) -> Skeleton:
    """1-skeleton of a lattice polytope in its face-computation coordinates.

    Those coordinates have the affine dimension, which is what the
    tightness verdict of a possibly degenerate Newton polytope needs;
    tightness is invariant under the unimodular change of coordinates.
    """
    if not poly.edges:
        raise ValueError("polytope has no edges; skeleton undefined")
    positions = poly.face_vertices
    return make_skeleton(len(positions[0]), positions, poly.edges)


class RedrawSpace(NamedTuple):
    dimension: int
    tight: bool
    arithmetic: str           # "exact" or "approximate"
    constraint_rank: int
    tolerance: float | None = None


def _is_exact(positions) -> bool:
    return all(isinstance(x, (int, Rational)) for p in positions for x in p)


def constraint_rows(skeleton: Skeleton) -> list[list]:
    """Rows of the parallelism system over the d*V position unknowns.

    Unknown layout: vertex v occupies columns v*d .. v*d+d-1.  Each edge
    s -> t with direction e gives d - 1 rows: with i the first coordinate
    of largest |e_i|, one minor e_i (q_t - q_s)_j - e_j (q_t - q_s)_i per
    j != i.  As e_i != 0, these vanish exactly when x = q_t - q_s is a
    multiple of e, so they span the same row space as all C(d, 2) minors.
    For d = 1 every redrawing is parallel, so there are no rows.
    """
    d = skeleton.dim
    n = len(skeleton.positions)
    rows: list[list] = []
    for s, t in skeleton.edges:
        e = [a - b for a, b in zip(skeleton.positions[t], skeleton.positions[s])]
        i = max(range(d), key=lambda c: abs(e[c]))
        for j in range(d):
            if j == i:
                continue
            row = [0] * (n * d)
            row[t * d + j] += e[i]
            row[t * d + i] -= e[j]
            row[s * d + j] -= e[i]
            row[s * d + i] += e[j]
            rows.append(row)
    return rows


def _rank_approx(rows: list[list]) -> int:
    if not rows:
        return 0
    import numpy as np  # here, so that exact skeletons never load numpy

    mat = np.array([[float(x) for x in row] for row in rows], dtype=float)
    if not np.isfinite(mat).all():
        raise ValueError("an edge direction is not finite in floating point")
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > TOLERANCE * sv[0]))


def _edge_classes(directions: list, pairs: list[tuple[int, int]],
                  neighbours: list[dict[int, int]]) -> list[int]:
    """Class of each edge: edges of one rigid triangle share their scale.

    Edges s -> t, s -> w and t -> w of a 3-cycle whose directions u and v
    (and v - u) are not parallel redraw to lambda_1 u, lambda_2 v and
    lambda_3 (v - u), so lambda_1 = lambda_2 = lambda_3.  Classes are the
    components of a union-find over such triangles, numbered 0, 1, ...
    The scan intersects the neighbour sets of each edge's ends, which
    tests each neighbour of the end with fewer; those tests count against
    the ``redraw`` budget before the scan starts.
    """
    budgets.check("redraw", sum(min(len(neighbours[s]), len(neighbours[t])) for s, t in pairs))
    parent = list(range(len(pairs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    d = len(directions[0])
    for i, (s, t) in enumerate(pairs):
        u = directions[i]
        for w in neighbours[s].keys() & neighbours[t].keys():
            if w < s or w < t:  # each triangle once, from its two lowest vertices
                continue
            j, k = neighbours[s][w], neighbours[t][w]
            a, b, c = find(i), find(j), find(k)
            if a == b == c:
                continue
            v = directions[j]
            if any(u[x] * v[y] != u[y] * v[x] for x in range(d) for y in range(x + 1, d)):
                parent[b] = parent[c] = a
    label: dict[int, int] = {}
    return [label.setdefault(find(i), len(label)) for i in range(len(pairs))]


def _exact_dimension(skeleton: Skeleton) -> int:
    """Dimension of the redrawing space of a rational skeleton.

    Every parallel redrawing moves each edge s -> t to q_t - q_s =
    lambda_e (p_t - p_s), so it is fixed by one translation per connected
    component and a scale lambda_e per edge.  Take a spanning forest.  The
    scales of its edges fix every q_t - q_s, and an edge e off the forest
    then needs the tree path between its ends to be parallel to e, which
    fixes lambda_e: d - 1 rows each.  The scales of the tree edges are
    constant on each class of ``_edge_classes``, which every redrawing
    obeys, so the rows have one column per class of tree edges and the
    dimension is d * (components) + (columns) - (rank of those rows).
    Zero rows are left to ``int_rank``, which drops them.
    """
    d = skeleton.dim
    positions = skeleton.positions
    n = len(positions)
    # each edge once, repeated and reversed ones dropped; v -> {w: edge}
    pairs: list[tuple[int, int]] = []
    neighbours: list[dict[int, int]] = [{} for _ in range(n)]
    for s, t in skeleton.edges:
        if t not in neighbours[s]:
            neighbours[s][t] = neighbours[t][s] = len(pairs)
            pairs.append((s, t))
    directions = [[b - a for a, b in zip(positions[s], positions[t])] for s, t in pairs]
    cls = _edge_classes(directions, pairs, neighbours)
    # breadth-first spanning forest: the vertices in the order reached (the
    # list is its own queue), each with the tree edge it was reached over
    order: list[tuple[int, int | None]] = []
    seen = [False] * n
    in_tree = [False] * len(pairs)
    components = 0
    for root in range(n):
        if seen[root]:
            continue
        components += 1
        seen[root] = True
        head = len(order)
        order.append((root, None))
        while head < len(order):
            v = order[head][0]
            head += 1
            for w, i in neighbours[v].items():
                if not seen[w]:
                    seen[w] = True
                    in_tree[i] = True
                    order.append((w, i))
    # one column per class of the tree edges
    column: dict[int, int] = {}
    for i, c in enumerate(cls):
        if in_tree[i]:
            column.setdefault(c, len(column))
    cycles = len(pairs) - n + components
    budgets.check("redraw", (d - 1) * cycles * len(column))
    # offset[v]: q_v - q_root as {class: the vector its scale multiplies}
    offset: list[dict[int, list]] = [{}] * n
    for v, i in order:
        if i is None:
            continue
        s, t = pairs[i]
        u, sign = (s, 1) if v == t else (t, -1)
        here = dict(offset[u])
        c = cls[i]
        here[c] = [a + sign * b for a, b in zip(here.get(c, [0] * d), directions[i])]
        offset[v] = here
    # the tree path from s to t, q_t - q_s, must be parallel to e: with p
    # a coordinate where e_p != 0, the minors e_p gap_j - e_j gap_p vanish
    rows = []
    for i, (s, t) in enumerate(pairs):
        if in_tree[i]:
            continue
        gap = dict(offset[t])
        for c, x in offset[s].items():
            gap[c] = [a - b for a, b in zip(gap.get(c, [0] * d), x)]
        e = directions[i]
        p = next(j for j in range(d) if e[j])
        for j in range(d):
            if j != p:
                row = [0] * len(column)
                for c, x in gap.items():
                    row[column[c]] = e[p] * x[j] - e[j] * x[p]
                rows.append(row)
    return d * components + len(column) - int_rank(rows)


def redraw_space(skeleton: Skeleton) -> RedrawSpace:
    """Dimension of the space of parallel redrawings and the tightness verdict."""
    if not skeleton.edges:
        raise ValueError("skeleton has no edges")
    d = skeleton.dim
    unknowns = len(skeleton.positions) * d
    if _is_exact(skeleton.positions):
        dimension = _exact_dimension(skeleton)
        arithmetic = "exact"
        tol = None
    else:
        budgets.check("redraw", (d - 1) * len(skeleton.edges) * unknowns)
        try:
            dimension = unknowns - _rank_approx(constraint_rows(skeleton))
        except OverflowError as exc:  # an integer or rational beyond float range
            raise ValueError(f"a vertex entry is too large for floating point: {exc}") from exc
        arithmetic = "approximate"
        tol = TOLERANCE
    if dimension < d + 1:
        raise InternalInconsistencyError(
            f"redrawing space of dimension {dimension} < {d + 1}: "
            "translations and scaling must always survive"
        )
    return RedrawSpace(dimension, dimension == d + 1, arithmetic, unknowns - dimension, tol)
