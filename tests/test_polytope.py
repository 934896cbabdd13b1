import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from polymix import hull, is_vertex, outward_normal, point_in_hull
from polymix.exactlp import equality_feasible
from polymix.lattice import content, int_det, primitive
from polymix.polytope import Facet


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def facets_by_triples(verts):
    """Reference facets of a 3-polytope: every supporting plane spanned by a
    vertex triple, grouped by (primitive inward normal, offset)."""
    found = {}
    m = len(verts)
    for i, j, k in combinations(range(m), 3):
        n = cross(sub(verts[j], verts[i]), sub(verts[k], verts[i]))
        if n == (0, 0, 0):
            continue
        dots = [dot(n, sub(verts[t], verts[i])) for t in range(m)]
        if all(x >= 0 for x in dots):
            inward = n
        elif all(x <= 0 for x in dots):
            inward = tuple(-x for x in n)
        else:
            continue
        inward = primitive(inward)
        c = dot(inward, verts[i])
        found.setdefault((inward, c), set()).update(
            t for t in range(m) if dot(inward, verts[t]) == c
        )
    facets = [
        Facet(tuple(sorted(members)), normal, off)
        for (normal, off), members in found.items()
    ]
    facets.sort(key=lambda f: (f.inward_normal, f.offset))
    return facets


def edges_by_lp(verts):
    """Reference edges of the polytope with vertex list ``verts``.

    [u, v] is an edge exactly when the segment misses the convex hull of
    the other vertices W: no lambda, mu, nu >= 0 with
    sum lambda_i w_i = mu u + nu v, sum lambda = 1 and mu + nu = 1.
    """
    edges = []
    for a, b in combinations(range(len(verts)), 2):
        u, v = verts[a], verts[b]
        others = [w for i, w in enumerate(verts) if i not in (a, b)]
        rows = [[w[c] for w in others] + [-u[c], -v[c]] for c in range(len(u))]
        rows.append([1] * len(others) + [0, 0])
        rows.append([0] * len(others) + [1, 1])
        if not equality_feasible(rows, [0] * len(u) + [1, 1]):
            edges.append((a, b))
    return edges


def assert_edge_normals(poly):
    """Every edge's outward normal is primitive and maximal on that edge only."""
    for edge in poly.edges:
        w = outward_normal(poly, edge)
        assert content(w) == 1
        values = [dot(w, v) for v in poly.vertices]
        top = max(values)
        assert {i for i, x in enumerate(values) if x == top} == set(edge)


class TestHull2D:
    def test_triangle(self):
        poly = hull({(0, 0), (1, 0), (0, 1)})
        assert sorted(poly.vertices) == [(0, 0), (0, 1), (1, 0)]
        assert poly.vertex_count == 3 and len(poly.edges) == 3
        assert poly.affine_dim == 2

    def test_collinear_point_dropped(self):
        poly = hull({(0, 0), (1, 0), (2, 0), (0, 1)})
        assert sorted(poly.vertices) == [(0, 0), (0, 1), (2, 0)]
        assert poly.vertex_count == 3

    def test_segment(self):
        poly = hull({(0, 0), (2, 0)})
        assert poly.affine_dim == 1
        assert poly.vertex_count == 2
        assert poly.edges == [(0, 1)]

    def test_point(self):
        poly = hull({(5, -3)})
        assert poly.affine_dim == 0
        assert poly.vertices == [(5, -3)] and not poly.edges

    def test_edges_form_single_cycle(self):
        rng = random.Random(21)
        for _ in range(10):
            pts = {(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(8)}
            poly = hull(pts)
            if poly.affine_dim != 2:
                continue
            degree = {i: 0 for i in range(poly.vertex_count)}
            for a, b in poly.edges:
                degree[a] += 1
                degree[b] += 1
            assert all(d == 2 for d in degree.values())
            assert len(poly.edges) == poly.vertex_count
            # counter-clockwise from the lexicographic minimum
            v = poly.vertices
            assert v[0] == min(v)
            for i in range(len(v)):
                a, b, c = v[i], v[(i + 1) % len(v)], v[(i + 2) % len(v)]
                assert cross2(sub(b, a), sub(c, b)) > 0


class TestIsVertex:
    def test_midpoint_is_not_vertex(self):
        s = {(0, 0), (1, 0), (2, 0), (0, 1)}
        assert not is_vertex((1, 0), s)

    def test_corner_is_vertex(self):
        assert is_vertex((0, 0), {(0, 0), (1, 0), (0, 1)})

    def test_4d_barycenter(self):
        # (1,1,1,1) is the average of the four quadrupled unit points,
        # so the exact LP must see through it in dimension 4
        s = {
            (0, 0, 0, 0),
            (4, 0, 0, 0),
            (0, 4, 0, 0),
            (0, 0, 4, 0),
            (0, 0, 0, 4),
            (1, 1, 1, 1),
        }
        assert not is_vertex((1, 1, 1, 1), s)
        assert is_vertex((4, 0, 0, 0), s)

    def test_4d_point_outside_doubled_simplex(self):
        # with the doubled unit points the coordinate sum separates
        # (1,1,1,1), so it is extreme
        s = {
            (0, 0, 0, 0),
            (2, 0, 0, 0),
            (0, 2, 0, 0),
            (0, 0, 2, 0),
            (0, 0, 0, 2),
            (1, 1, 1, 1),
        }
        assert is_vertex((1, 1, 1, 1), s)

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            is_vertex((9, 9), {(0, 0), (1, 0)})


class TestEqualityFeasible:
    def test_fraction_rows_are_scaled_exactly(self):
        half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
        assert equality_feasible([[half, third]], [sixth])
        assert not equality_feasible([[half, third]], [-sixth])
        # x = (2/3, 1/3) is the only solution of the first two rows
        assert equality_feasible([[1, 1], [1, -1]], [1, third])
        assert not equality_feasible([[1, 1], [1, -1], [1, 0]], [1, third, 1])

    def test_random_systems_with_known_answers(self):
        # feasible: b = A x0 for some x0 >= 0; infeasible: a Farkas vector
        # y with y.A >= 0 > y.b, made by flipping the columns with y.A_j < 0
        rng = random.Random(29)
        for _ in range(300):
            m, n = rng.randint(1, 6), rng.randint(1, 9)
            a = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)]
                 for _ in range(m)]
            x0 = [Fraction(rng.randint(0, 3), rng.choice((1, 2))) for _ in range(n)]
            assert equality_feasible(a, [dot(row, x0) for row in a])
            y = [rng.randint(-2, 2) for _ in range(m)]
            if not any(y):
                continue
            for j in range(n):
                if sum(y[i] * a[i][j] for i in range(m)) < 0:
                    for row in a:
                        row[j] = -row[j]
            b = [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(m)]
            if dot(y, b) == 0:
                continue
            if dot(y, b) > 0:
                b = [-x for x in b]
            assert not equality_feasible(a, b)


class TestOutwardNormal2D:
    def test_triangle_normals(self, ledrappier):
        poly = hull(ledrappier.support())
        index = {v: i for i, v in enumerate(poly.vertices)}
        by_pts = {}
        for a, b in poly.edges:
            key = frozenset((poly.vertices[a], poly.vertices[b]))
            by_pts[key] = outward_normal(poly, (a, b))
        assert by_pts[frozenset({(1, 0), (0, 1)})] == (1, 1)
        assert by_pts[frozenset({(0, 0), (1, 0)})] == (0, -1)
        assert by_pts[frozenset({(0, 0), (0, 1)})] == (-1, 0)
        assert index  # vertices present

    def test_square_axis_edge(self):
        poly = hull({(0, 0), (1, 0), (1, 1), (0, 1)})
        index = {v: i for i, v in enumerate(poly.vertices)}
        edge = tuple(sorted((index[(1, 0)], index[(1, 1)])))
        assert outward_normal(poly, edge) == (1, 0)

    def test_degenerate_and_missing_edge_errors(self):
        seg = hull({(0, 0), (2, 0)})
        with pytest.raises(ValueError):
            outward_normal(seg, (0, 1))
        tri = hull({(0, 0), (1, 0), (0, 1)})
        with pytest.raises(ValueError):
            outward_normal(tri, (0, 7))


class TestHull3D:
    def test_cube_corners(self):
        pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        poly = hull(pts)
        assert poly.vertex_count == 8
        assert len(poly.edges) == 12
        assert len(poly.facets) == 6

    def test_octahedron(self):
        pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        poly = hull(pts)
        assert poly.vertex_count == 6
        assert len(poly.edges) == 12
        assert len(poly.facets) == 8

    def test_interior_point_dropped(self):
        pts = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
        poly = hull(pts)
        assert (1, 1, 1) not in poly.vertices
        assert poly.vertex_count == 4

    def test_edge_normal_supports_on_edge_only(self):
        pts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
        poly = hull(pts)
        for edge in poly.edges:
            w = outward_normal(poly, edge)
            values = [dot(w, v) for v in poly.vertices]
            top = max(values)
            argmax = {i for i, x in enumerate(values) if x == top}
            assert argmax == set(edge)
            assert content(w) == 1


class TestDegenerateProjection:
    def test_planar_set_in_3d(self):
        # triangle living in the plane z = x + y
        pts = [(0, 0, 0), (2, 0, 2), (0, 2, 2), (1, 0, 1)]
        poly = hull(pts)
        assert poly.affine_dim == 2
        assert sorted(poly.vertices) == [(0, 0, 0), (0, 2, 2), (2, 0, 2)]
        assert len(poly.edges) == 3

    def test_pullback_normal_supports_in_original_coords(self):
        pts = [(0, 0, 0), (2, 0, 2), (0, 2, 2), (1, 0, 1)]
        poly = hull(pts)
        for edge in poly.edges:
            w = outward_normal(poly, edge)
            assert content(w) == 1
            values = [dot(w, v) for v in poly.vertices]
            top = max(values)
            assert {i for i, x in enumerate(values) if x == top} == set(edge)

    def test_high_dim_simplex_edges(self):
        pts = [
            (0, 0, 0, 0),
            (4, 0, 0, 0),
            (0, 4, 0, 0),
            (0, 0, 4, 0),
            (0, 0, 0, 4),
            (1, 1, 1, 1),
        ]
        poly = hull(pts)
        assert poly.affine_dim == 4
        assert (1, 1, 1, 1) not in poly.vertices
        assert poly.vertex_count == 5
        assert len(poly.facets) == 5
        assert poly.edges == list(combinations(range(5), 2)) == edges_by_lp(poly.vertices)
        assert_edge_normals(poly)


def random_unimodular(rng: random.Random, d: int):
    """Product of random integer shears and coordinate swaps."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(6):
        i, j = rng.sample(range(d), 2)
        q = rng.randint(-2, 2)
        for k in range(d):
            m[i][k] += q * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    assert abs(int_det([row[:] for row in m])) == 1
    return m


class TestInvariants:
    def test_vertices_subset_and_containment(self, all_fixtures):
        rng = random.Random(22)
        for _ in range(15):
            pts = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 8))}
            poly = hull(pts)
            assert set(poly.vertices) <= pts
            assert poly.vertex_count <= len(pts)
            for s in pts:
                assert point_in_hull(s, poly.vertices)

    def test_translation_invariance(self):
        rng = random.Random(23)
        for _ in range(10):
            pts = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(6)]
            t = (rng.randint(-4, 4), rng.randint(-4, 4))
            moved = [tuple(a + b for a, b in zip(p, t)) for p in pts]
            v1 = {tuple(a + b for a, b in zip(p, t)) for p in hull(pts).vertices}
            v2 = set(hull(moved).vertices)
            assert v1 == v2

    @pytest.mark.parametrize("d", [2, 3])
    def test_unimodular_equivariance(self, d):
        rng = random.Random(24 + d)
        for _ in range(8):
            pts = [tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(6)]
            m = random_unimodular(rng, d)
            image = [tuple(dot(row, p) for row in m) for p in pts]
            v1 = {tuple(dot(row, p) for row in m) for p in hull(pts).vertices}
            v2 = set(hull(image).vertices)
            assert v1 == v2

    def test_3d_vertices_match_lp_oracle(self):
        # the LP decides each point alone; the triple scan is the facet reference
        rng = random.Random(26)
        sets = [set(product(range(3), repeat=3)), set(product(range(2), repeat=4))]
        for d in (3, 4):
            for _ in range(12):
                sets.append({tuple(rng.randint(0, 4) for _ in range(d))
                             for _ in range(rng.randint(5, 14))})
            for _ in range(6):
                # even corners plus midpoints: points on edges and facets
                corners = [tuple(2 * rng.randint(0, 2) for _ in range(d)) for _ in range(d + 3)]
                mids = {tuple((a + b) // 2 for a, b in zip(*rng.sample(corners, 2)))
                        for _ in range(8)}
                sets.append(set(corners) | mids)
        # a 3-dimensional set in Z^4 on the hyperplane x3 = x0 + x1
        sets.append({(a, b, c, a + b) for a, b, c in product(range(3), repeat=3)})
        checked = 0
        for pts in sets:
            poly = hull(pts)
            if poly.affine_dim < 3:
                continue
            checked += 1
            expected = {p for p in pts if is_vertex(p, pts)}
            assert set(poly.vertices) == expected
            if poly.affine_dim == 3:
                assert poly.facets == facets_by_triples(poly.face_vertices)
            else:
                assert poly.edges == edges_by_lp(poly.vertices)
        assert checked >= 30

    def test_all_pairs_of_facets_checked(self):
        # every edge of a k-polytope (k = 2, 3) lies in exactly k - 1 facets
        rng = random.Random(27)
        sets = [[(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]]
        for d in (2, 3):
            for _ in range(15):
                sets.append([tuple(rng.randint(0, 4) for _ in range(d))
                             for _ in range(rng.randint(4, 14))])
        checked = 0
        for pts in sets:
            poly = hull(pts)
            if poly.affine_dim < 2:
                continue
            checked += 1
            for a, b in poly.edges:
                containing = [
                    f for f in poly.facets if a in f.vertex_indices and b in f.vertex_indices
                ]
                assert len(containing) == poly.affine_dim - 1
        assert checked >= 25

    def test_edges_match_lp_oracle_in_dimensions_4_and_5(self):
        # full-dimensional sets in Z^4 and Z^5, and 4-dimensional sets in Z^5
        # on the hyperplane x4 = x0 + x1 - x3
        rng = random.Random(28)
        sets = []
        for d, side in ((4, 3), (5, 2)):
            for _ in range(120):
                sets.append({tuple(rng.randint(0, side) for _ in range(d))
                             for _ in range(rng.randint(d + 1, d + 5))})
        for _ in range(80):
            sets.append({(a, b, c, e, a + b - e)
                         for a, b, c, e in (tuple(rng.randint(0, 3) for _ in range(4))
                                            for _ in range(rng.randint(5, 9)))})
        counts = {4: 0, 5: 0}
        non_edges = 0
        for pts in sets:
            poly = hull(pts)
            if poly.affine_dim < 4:
                continue
            counts[poly.affine_dim] += 1
            assert poly.edges == edges_by_lp(poly.vertices)
            assert_edge_normals(poly)
            non_edges += len(list(combinations(poly.vertices, 2))) - len(poly.edges)
        assert counts[4] >= 150 and counts[5] >= 80
        assert non_edges >= 100  # the sets are not all neighbourly

    def test_facet_combinatorics_vs_pairwise(self):
        pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        poly = hull(pts)
        pairs = {
            tuple(sorted(set(f.vertex_indices) & set(g.vertex_indices)))
            for f, g in combinations(poly.facets, 2)
            if len(set(f.vertex_indices) & set(g.vertex_indices)) == 2
        }
        assert pairs == set(poly.edges)
