"""Lattice polytopes from polynomial supports, with exact arithmetic.

Vertices and facet planes are computed in every dimension by one integer
Quickhull (orientation signs of integer normals, no division).  It
starts from a simplex of far-apart points and keeps an outside set per
facet: the points strictly beyond it that no earlier facet holds.  Each
step inserts the farthest point of one outside set and tests only the
points of the facets it deletes against the facets it adds, which is
exact (see ``_beneath_beyond``).  Points inside the growing hull are
dropped early, so few facets are built that the finished hull lacks.  A
map from each ridge to the two facets through it lets a step find the
facets it deletes by a walk from the picked facet, and gives each new
facet its normal from the two facets at its horizon ridge, in O(k) exact
integer operations; only the starting simplex takes cofactor normals.
The ``hull`` budget bounds its visibility tests and facet normals.  The
faces are read off the facet-vertex incidences by one closure rule in
every affine dimension: a set of points spans a face exactly when it
equals the set of points on every facet that contains it (every point,
when no facet does), so a corner is a vertex when its closure is itself
and two vertices span an edge when their closure is the pair (only pairs
on a common facet are tried, or the two ends of a segment).  An edge's
outward normal is the primitive sum of the outward normals of the facets
through it.  Supports whose affine hull is lower-dimensional are mapped
onto Z^k by a unimodular column reduction, the faces are computed there,
and results are reported in the original coordinates (normals are pulled
back through the same transform).

No floating point appears anywhere in this module.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from operator import mul, sub
from typing import Iterable, NamedTuple, Sequence

from . import budgets
from .errors import InternalInconsistencyError
from .lattice import (
    apply_columns,
    column_reduce,
    combine_columns,
    int_det,
    int_rank,
    primitive,
)
from .laurent import check_vectors

IntVec = tuple[int, ...]


class Facet(NamedTuple):
    vertex_indices: tuple[int, ...]
    inward_normal: IntVec  # in face-computation coordinates, primitive
    offset: int            # inward_normal . x == offset on the facet


class LatticePolytope(NamedTuple):
    dim: int
    affine_dim: int
    vertices: list[IntVec]            # original coordinates
    edges: list[tuple[int, int]]      # index pairs into vertices (i < j)
    facets: list[Facet]               # sorted by (inward normal, offset); empty for a point
    face_vertices: list[IntVec]       # vertices in face-computation coordinates
    proj_cols: list[list[int]] | None = None  # onto face coordinates when affine_dim < dim

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _sub(a, b) -> IntVec:
    return tuple(map(sub, a, b))


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

    Quickhull (Barber, Dobkin and Huhdanpaa, ACM TOMS 22, 1996) on a
    simplicial hull, in integers.  The points are ordered far-first, by
    decreasing squared distance from the centroid (ties lexicographic),
    and the first k+1 affinely independent ones form the starting
    simplex.  Every other point joins the outside set of one facet it lies
    strictly beyond, or is dropped as inside.  Each step takes the oldest
    facet with a non-empty outside set, inserts its farthest point p (the
    largest offset - <n, q>, ties lexicographic) and replaces the facets
    visible from p, those it lies strictly beyond, by cones from p over
    their horizon ridges.  The points of the deleted facets are tested
    against the new facets only, and those beyond none are dropped.

    That is exact.  Say q, beyond a deleted facet F of the hull H, lies
    beneath or on every new facet.  The new facets' half-spaces meet in
    the tangent cone at p of conv(H + p), so were q outside conv(H + p),
    a point of H would lie strictly between p and q, and so strictly
    beyond F, as p and q are; no point of H is.

    A map from each ridge (a facet's corners minus one) to the two facets
    through it is kept as facets come and go.  The visible facets are
    connected across ridges, so a walk from the picked facet finds them
    all, testing only them and their hidden neighbours; a ridge between
    a visible facet V and a hidden one N is a horizon ridge.  The new
    facet over it takes the plane of the pencil of V's and N's planes
    that passes through p, with normal
    primitive((<n_N, p> - o_N) n_V + (o_V - <n_V, p>) n_N), in O(k):
    both planes hold the ridge, so every plane of the pencil does.  Its
    functional mixes the two inward functionals with the weights
    <n_N, p> - o_N >= 0 (N is hidden) and o_V - <n_V, p> > 0 (V is
    visible), so it is nonnegative on the hull and positive inside it:
    the normal is nonzero and points inward.  Being built from offsets,
    the rule holds at k = 1 too, where the ridge is empty.  Only the k+1
    facets of the starting simplex take cofactor normals (``_normal``).

    The ``hull`` budget is charged each visibility test (assignment,
    reassignment and the walk's) as it is made, and k for each facet
    normal before it is built.  Returns ``_faces`` of the finished hull.
    """
    k = len(pts[0])
    n = len(pts)
    totals = [sum(col) for col in zip(*pts)]
    # far-first: n^2 times the squared distance from the centroid, integral
    order = sorted(pts, key=lambda q: (-sum((n * x - t) ** 2 for x, t in zip(q, totals)), q))
    simplex = order[:1]
    for q in order[1:]:
        if int_rank([_sub(c, order[0]) for c in simplex[1:] + [q]]) == len(simplex):
            simplex.append(q)
            if len(simplex) == k + 1:
                break
    # corners -> (inward normal, offset, outside set)
    facets: dict[tuple[IntVec, ...], tuple[IntVec, int, list[IntVec]]] = {}
    # ridge -> the facets through it, two once a step is done
    ridges: dict[tuple[IntVec, ...], list[tuple[IntVec, ...]]] = {}
    charge = budgets.Meter("hull").charge  # visibility tests, and k per facet normal

    def add(cones) -> list[tuple[IntVec, ...]]:
        charge(k * len(cones))
        keys = []
        for corners, normal in cones:
            key = tuple(sorted(corners))
            facets[key] = (normal, _dot(normal, corners[0]), [])
            for i in range(k):
                ridges.setdefault(key[:i] + key[i + 1:], []).append(key)
            keys.append(key)
        return keys

    def assign(points, keys) -> None:
        candidates = [facets[key] for key in keys]
        for q in points:
            for tests, (normal, offset, outside) in enumerate(candidates, 1):
                if _dot(normal, q) < offset:
                    outside.append(q)
                    break
            charge(tests)

    # k+1 times the simplex's centroid: an integral point strictly inside it
    centre = tuple(sum(col) for col in zip(*simplex))
    cones = []
    for i in range(k + 1):
        corners = simplex[:i] + simplex[i + 1:]
        normal = primitive(_normal(corners))
        if _dot(normal, centre) < (k + 1) * _dot(normal, corners[0]):
            normal = tuple(-x for x in normal)
        cones.append((corners, normal))
    placed = set(simplex)
    pending = deque(add(cones))
    assign([q for q in pts if q not in placed], pending)
    while pending:
        start = pending.popleft()
        facet = facets.get(start)
        if facet is None or not facet[2]:
            continue
        normal, _, outside = facet
        # the farthest point: the largest offset - <normal, q>
        p = min(outside, key=lambda q: (_dot(normal, q), q))
        beyond = {start: True}
        walk = [start]
        interior, horizon = [], []
        for c in walk:
            for i in range(k):
                ridge = c[:i] + c[i + 1:]
                first, second = ridges[ridge]
                other = second if first == c else first
                if other not in beyond:
                    normal, offset, _ = facets[other]
                    beyond[other] = _dot(normal, p) < offset
                    if beyond[other]:
                        walk.append(other)
                if beyond[other]:
                    interior.append(ridge)
                else:
                    horizon.append((ridge, facets[c], facets[other], other))
        charge(len(beyond) - 1)  # the start is known to be visible
        orphans = []
        for c in walk:
            orphans += facets.pop(c)[2]
        for ridge in interior:
            ridges.pop(ridge, None)  # met from both sides
        cones = []
        for ridge, (n_v, o_v, _), (n_n, o_n, _), other in horizon:
            ridges[ridge] = [other]
            a, b = _dot(n_n, p) - o_n, o_v - _dot(n_v, p)
            cones.append((ridge + (p,), primitive(tuple(a * x + b * y for x, y in zip(n_v, n_n)))))
        new = add(cones)
        assign([q for q in orphans if q != p], new)
        pending += new
    return _faces((corners, normal, offset) for corners, (normal, offset, _) in facets.items())


def _faces(
    simplices: Iterable[tuple[tuple[IntVec, ...], IntVec, int]],
) -> tuple[list[IntVec], dict[tuple[IntVec, int], set[IntVec]]]:
    """Vertices and facet planes from the facets (corners, normal, offset) of a
    simplicial hull.

    The facet simplices are grouped by (primitive inward normal, offset);
    a corner of the triangulation is a vertex exactly when its closure is
    itself.  Returns the sorted vertices and, per facet plane, the
    vertices lying on it.
    """
    planes: dict[tuple[IntVec, int], set[IntVec]] = {}
    for corners, normal, offset in simplices:
        planes.setdefault((normal, offset), set()).update(corners)
    members = list(planes.values())
    through = _incidences(members)
    vertices = sorted(c for c in through if _closure({c}, through, members) == {c})
    keep = set(vertices)
    return vertices, {plane: on & keep for plane, on in planes.items()}


def _incidences(members: list[set]) -> dict:
    """For each point, the indices of the facets (vertex sets) containing it."""
    through: dict = {}
    for n, on in enumerate(members):
        for c in on:
            through.setdefault(c, set()).add(n)
    return through


def _closure(face: set, through: dict, members: list[set]) -> set:
    """The smallest face containing ``face``, as a set of points.

    It is the set of points on every facet that contains ``face``, or
    every point when no facet does (Ziegler, Lectures on Polytopes, 2.2).
    """
    shared = set.intersection(*(through[c] for c in face))
    return set.intersection(*(members[n] for n in shared)) if shared else set(through)


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

    The points are int vectors of one length (``laurent.check_vectors``).
    Vertices are reported in the original coordinates, ordered by their
    face-computation coordinates: sorted, except in affine dimension 2,
    where they run counter-clockwise from the lexicographic minimum.
    Facets and edges (index pairs into the vertex list) are produced in
    every affine dimension: a pair is an edge when its closure, the
    vertices on every facet through both, is the pair itself.
    """
    points = list(points)
    check_vectors(points, None, "point")
    pts = sorted(set(map(tuple, points)))
    if not pts:
        raise ValueError("empty point set has no hull")
    dim = len(pts[0])
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
    members = [set(f.vertex_indices) for f in facets]
    through = _incidences(members)
    # an edge lies on k - 1 >= 1 facets, or is the whole segment when k = 1
    pairs = {(0, 1)} if k == 1 else {e for f in facets for e in combinations(f.vertex_indices, 2)}
    edges = sorted(e for e in pairs if _closure(set(e), through, members) == set(e))
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
    if poly.proj_cols is None:
        return w
    lifted = combine_columns(poly.proj_cols, w, poly.dim)
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
