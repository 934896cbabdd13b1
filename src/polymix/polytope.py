"""Lattice polytopes from polynomial supports, with exact arithmetic.

Vertices are computed in any dimension by one integer beneath-beyond
hull (orientation signs of integer cofactor normals, no division); the
full edge/facet structure is reported when the affine dimension is at
most 3.  Supports whose affine hull is lower-dimensional are mapped onto
Z^k by a unimodular column reduction, the faces are computed there, and
results are reported in the original coordinates (normals are pulled
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
    facets: list[Facet]               # populated only for affine_dim == 3
    face_vertices: list[IntVec]       # vertices in face-computation coordinates
    _proj_cols: list[list[int]] | None = field(default=None, repr=False)
    _base: IntVec | None = field(default=None, repr=False)
    _edge_facets: dict[tuple[int, int], tuple[int, int]] = field(
        default_factory=dict, repr=False
    )

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


def _cross2(o: IntVec, a: IntVec, b: IntVec) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain_ccw(points: list[IntVec]) -> list[IntVec]:
    """Monotone chain; strict turns only, so collinear points are dropped.

    Returns the extreme points in counter-clockwise cycle order starting
    at the lexicographic minimum.
    """
    pts = sorted(points)
    lower: list[IntVec] = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[IntVec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


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
    """Vertices and facet planes of a full-dimensional point set in Z^k, k >= 2.

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


def hull(points: Iterable[Sequence[int]]) -> LatticePolytope:
    """Convex hull of a non-empty set of lattice points, exactly.

    Vertices are reported in the original coordinates in a deterministic
    order; edges (and facets in the 3-dimensional case) are index pairs
    (sets) into the vertex list.  For affine dimension >= 4 only the
    vertex set is produced.
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

    if k == 1:
        order = sorted(face_pts)
        face_verts = [order[0], order[-1]]
        edges = [(0, 1)]
        facets: list[Facet] = []
    elif k == 2:
        face_verts = _chain_ccw(face_pts)
        v = len(face_verts)
        edges = sorted(tuple(sorted((i, (i + 1) % v))) for i in range(v))
        facets = []
    else:
        face_verts, planes = _beneath_beyond(face_pts)
        edges = []
        facets = []
        if k == 3:
            index = {v: i for i, v in enumerate(face_verts)}
            facets = [
                Facet(tuple(sorted(index[v] for v in members)), normal, offset)
                for (normal, offset), members in sorted(planes.items())
            ]
            edge_map: dict[tuple[int, int], tuple[int, int]] = {}
            for fi, fj in combinations(range(len(facets)), 2):
                shared = set(facets[fi].vertex_indices) & set(facets[fj].vertex_indices)
                if len(shared) == 2:
                    a, b = sorted(shared)
                    edge_map[(a, b)] = (fi, fj)
            edges = sorted(edge_map)
            if len(face_verts) - len(edges) + len(facets) != 2:
                raise InternalInconsistencyError(
                    "Euler check failed on 3-dimensional hull"
                )

    vertices = [by_face[fv] for fv in face_verts]
    poly = LatticePolytope(
        dim,
        k,
        vertices,
        list(edges),
        facets,
        list(face_verts),
        proj_cols,
        base if proj_cols is not None else None,
    )
    if k == 3:
        poly._edge_facets = edge_map
    return poly


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
    the edge.  In the 3-dimensional case the representative is the
    primitive rescaling of the sum of the two adjacent facets' outward
    normals, a vector interior to the edge's normal cone.
    """
    if poly.affine_dim < 2:
        raise ValueError(f"degenerate polytope (affine dimension {poly.affine_dim})")
    if poly.affine_dim > 3:
        raise ValueError("edge normals are only available for affine dimension <= 3")
    key = tuple(sorted(edge))
    if key not in set(poly.edges):
        raise ValueError(f"{key} is not an edge of the polytope")
    i, j = key
    fv = poly.face_vertices

    if poly.affine_dim == 2:
        t = _sub(fv[j], fv[i])
        w = primitive((t[1], -t[0]))
        for m in range(len(fv)):
            s = _dot(w, _sub(fv[m], fv[i]))
            if s > 0:
                w = tuple(-x for x in w)
                break
            if s < 0:
                break
    else:
        fi, fj = poly._edge_facets[key]
        o1 = tuple(-x for x in poly.facets[fi].inward_normal)
        o2 = tuple(-x for x in poly.facets[fj].inward_normal)
        w = primitive(tuple(a + b for a, b in zip(o1, o2)))

    top = _dot(w, fv[i])
    for m, q in enumerate(fv):
        s = _dot(w, q)
        onedge = m in key
        if (onedge and s != top) or (not onedge and s >= top):
            raise InternalInconsistencyError("outward normal fails support check")
    return _pull_back(poly, w)
