"""Lattice polytopes from polynomial supports, with exact arithmetic.

Vertices and facet planes are computed in every dimension by one integer
beneath-beyond hull (orientation signs of integer cofactor normals, no
division).  The faces are read off the facet planes by one rule in every
affine dimension k: two vertices span an edge exactly when the inward
normals of the facets containing both have rank k - 1, and an edge's
outward normal is the primitive sum of the outward normals of the facets
through it.  Supports whose affine hull is lower-dimensional are mapped
onto Z^k by a unimodular column reduction, the faces are computed there,
and results are reported in the original coordinates (normals are pulled
back through the same transform).

No floating point appears anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InternalInconsistencyError
from .exactlp import in_convex_hull
from .lattice import (
    apply_columns,
    column_reduce,
    combine_columns,
    int_det,
    int_rank,
    primitive,
)

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class Facet:
    vertex_indices: tuple[int, ...]
    inward_normal: IntVec  # in face-computation coordinates, primitive
    offset: int            # inward_normal . x == offset on the facet


@dataclass
class LatticePolytope:
    dim: int
    affine_dim: int
    vertices: list[IntVec]            # original coordinates
    edges: list[tuple[int, int]]      # index pairs into vertices (i < j)
    facets: list[Facet]               # sorted by (inward normal, offset); empty for a point
    face_vertices: list[IntVec]       # vertices in face-computation coordinates
    _proj_cols: list[list[int]] | None = field(default=None, repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


def is_vertex(q: Sequence[int], points: Iterable[Sequence[int]]) -> bool:
    """Is q an extreme point of the set?  Requires q to be a member.

    Decided exactly: q is a vertex iff it is not a convex combination of
    the remaining points (a rational feasibility LP).
    """
    q = tuple(q)
    pts = {tuple(s) for s in points}
    if q not in pts:
        raise ValueError(f"{q} is not a member of the point set")
    return not in_convex_hull(q, sorted(pts - {q}))


def point_in_hull(q: Sequence[int], points: Iterable[Sequence[int]]) -> bool:
    """Exact containment of q in the convex hull of the points."""
    return in_convex_hull(tuple(q), sorted({tuple(s) for s in points}))


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b) -> IntVec:
    return tuple(x - y for x, y in zip(a, b))


def _normal(corners: Sequence[IntVec]) -> IntVec:
    """Integer normal of the hyperplane through k points of Z^k.

    The cofactor expansion of det([x; c_1 - c_0; ...; c_{k-1} - c_0])
    along its first row: a nonzero vector exactly when the points are
    affinely independent.
    """
    rows = [_sub(c, corners[0]) for c in corners[1:]]
    return tuple(
        (-1) ** j * int_det([list(r[:j] + r[j + 1:]) for r in rows])
        for j in range(len(corners[0]))
    )


def _beneath_beyond(
    pts: list[IntVec],
) -> tuple[list[IntVec], dict[tuple[IntVec, int], set[IntVec]]]:
    """Vertices and facet planes of a full-dimensional point set in Z^k, k >= 1.

    Points are inserted one at a time into a simplicial hull.  A facet is
    visible from a point only when the point lies strictly beyond its
    plane, so a point with no visible facet lies in the current hull and
    is not a vertex; the visible facets are replaced by cones from the
    point over their horizon ridges.  Facet simplices are then grouped by
    (primitive inward normal, offset); a corner of the triangulation is a
    vertex exactly when the normals of its facets have rank k.  Returns
    the sorted vertices and, per facet plane, the vertices lying on it.
    """
    k = len(pts[0])
    simplex = [pts[0]]
    for q in pts[1:]:
        if int_rank([_sub(c, pts[0]) for c in simplex[1:] + [q]]) == len(simplex):
            simplex.append(q)
            if len(simplex) == k + 1:
                break
    # k+1 times the simplex's centroid: an integral point strictly inside
    # every hull built on the simplex
    centre = tuple(sum(col) for col in zip(*simplex))
    facets: dict[tuple[IntVec, ...], tuple[IntVec, int]] = {}

    def add(corners) -> None:
        normal = primitive(_normal(corners))
        offset = _dot(normal, corners[0])
        if _dot(normal, centre) < (k + 1) * offset:
            normal, offset = tuple(-x for x in normal), -offset
        facets[tuple(sorted(corners))] = (normal, offset)

    for i in range(k + 1):
        add(simplex[:i] + simplex[i + 1:])
    placed = set(simplex)
    for q in pts:
        if q in placed:
            continue
        visible = [c for c, (normal, offset) in facets.items() if _dot(normal, q) < offset]
        ridges: dict[tuple[IntVec, ...], int] = {}
        for c in visible:
            del facets[c]
            for i in range(k):
                ridge = c[:i] + c[i + 1:]
                ridges[ridge] = ridges.get(ridge, 0) + 1
        for ridge, count in ridges.items():
            if count == 1:
                add(ridge + (q,))

    planes: dict[tuple[IntVec, int], set[IntVec]] = {}
    normals_at: dict[IntVec, set[IntVec]] = {}
    for corners, plane in facets.items():
        planes.setdefault(plane, set()).update(corners)
        for c in corners:
            normals_at.setdefault(c, set()).add(plane[0])
    vertices = sorted(c for c, normals in normals_at.items() if int_rank(list(normals)) == k)
    keep = set(vertices)
    return vertices, {plane: members & keep for plane, members in planes.items()}


def _counter_clockwise(
    vertices: list[IntVec], planes: dict[tuple[IntVec, int], set[IntVec]]
) -> list[IntVec]:
    """Polygon vertices in counter-clockwise order from the first (lex-least) one.

    Each edge runs along its inward normal turned clockwise, (n_1, -n_0).
    """
    after = {}
    for (normal, _), members in planes.items():
        a, b = members
        if normal[1] * (b[0] - a[0]) < normal[0] * (b[1] - a[1]):
            a, b = b, a
        after[a] = b
    order = vertices[:1]
    while len(order) < len(vertices):
        order.append(after[order[-1]])
    return order


def hull(points: Iterable[Sequence[int]]) -> LatticePolytope:
    """Convex hull of a non-empty set of lattice points, exactly.

    Vertices are reported in the original coordinates, ordered by their
    face-computation coordinates: sorted, except in affine dimension 2,
    where they run counter-clockwise from the lexicographic minimum.
    Facets and edges (index pairs into the vertex list) are produced in
    every affine dimension k: a pair is an edge when the facets through
    both have normals of rank k - 1, so only pairs sharing at least k - 1
    facets are ranked.
    """
    pts = sorted({tuple(int(x) for x in s) for s in points})
    if not pts:
        raise ValueError("empty point set has no hull")
    dim = len(pts[0])
    if any(len(s) != dim for s in pts):
        raise ValueError("points have inconsistent dimensions")
    base = pts[0]
    diffs = [_sub(s, base) for s in pts]
    vcols, k = column_reduce(diffs, dim)

    if k == 0:
        return LatticePolytope(dim, 0, [base], [], [], [(0,) * dim])

    if k == dim:
        face_pts = pts
        proj_cols = None
    else:
        face_pts = [apply_columns(vcols, d, k) for d in diffs]
        proj_cols = vcols

    by_face = {fp: orig for fp, orig in zip(face_pts, pts)}
    face_verts, planes = _beneath_beyond(face_pts)
    if k == 2:
        face_verts = _counter_clockwise(face_verts, planes)
    index = {v: i for i, v in enumerate(face_verts)}
    facets = [
        Facet(tuple(sorted(index[v] for v in members)), normal, offset)
        for (normal, offset), members in sorted(planes.items())
    ]
    through: list[set[int]] = [set() for _ in face_verts]  # facets at each vertex
    for n, f in enumerate(facets):
        for i in f.vertex_indices:
            through[i].add(n)
    edges = []
    for i, j in combinations(range(len(face_verts)), 2):
        shared = through[i] & through[j]
        if len(shared) >= k - 1 and int_rank([facets[n].inward_normal for n in shared]) == k - 1:
            edges.append((i, j))
    if k == 3 and len(face_verts) - len(edges) + len(facets) != 2:
        raise InternalInconsistencyError("Euler check failed on 3-dimensional hull")

    return LatticePolytope(
        dim,
        k,
        [by_face[fv] for fv in face_verts],
        edges,
        facets,
        face_verts,
        proj_cols,
    )


def _pull_back(poly: LatticePolytope, w: IntVec) -> IntVec:
    """Lift a face-coordinate normal to the original coordinates.

    With V the unimodular column transform and pi(x) the first k entries
    of (x - base) @ V, the functional w . pi(x) equals W . (x - base) for
    W = V[:, :k] @ w; unimodularity keeps W primitive when w is.
    """
    if poly._proj_cols is None:
        return w
    lifted = combine_columns(poly._proj_cols, w, poly.dim)
    return primitive(lifted)


def outward_normal(poly: LatticePolytope, edge: Sequence[int]) -> IntVec:
    """Primitive integer vector orthogonal to the edge, pointing outward.

    The functional x -> x . w is maximized over the polytope exactly on
    the edge.  The representative is the primitive rescaling of the sum
    of the outward normals of the facets through the edge (k - 1 or more
    of them in affine dimension k), a vector interior to the edge's
    normal cone.
    """
    if poly.affine_dim < 2:
        raise ValueError(f"degenerate polytope (affine dimension {poly.affine_dim})")
    key = tuple(sorted(edge))
    if key not in set(poly.edges):
        raise ValueError(f"{key} is not an edge of the polytope")
    i, j = key
    through = [f.inward_normal for f in poly.facets if {i, j} <= set(f.vertex_indices)]
    w = primitive(tuple(-sum(col) for col in zip(*through)))

    fv = poly.face_vertices
    top = _dot(w, fv[i])
    for m, q in enumerate(fv):
        s = _dot(w, q)
        onedge = m in key
        if (onedge and s != top) or (not onedge and s >= top):
            raise InternalInconsistencyError("outward normal fails support check")
    return _pull_back(poly, w)
