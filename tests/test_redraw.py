import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from polymix import hull, is_tight, make_skeleton, redraw_space, skeleton_from_polytope
from polymix.errors import InternalInconsistencyError
from polymix.redraw import constraint_rows

from conftest import (
    cube_skeleton,
    icosahedron_skeleton,
    octahedron_skeleton,
    square_skeleton,
    tetrahedron_skeleton,
    triangle_skeleton,
)


class TestCatalog:
    def test_triangle_tight(self):
        space = redraw_space(triangle_skeleton())
        assert space.dimension == 3 and space.tight
        assert space.arithmetic == "exact"

    def test_square_not_tight(self):
        space = redraw_space(square_skeleton())
        assert space.dimension == 4 and not space.tight

    def test_cube_not_tight(self):
        space = redraw_space(cube_skeleton())
        assert space.dimension == 6 and not space.tight

    def test_tetrahedron_tight(self):
        space = redraw_space(tetrahedron_skeleton())
        assert space.dimension == 4 and space.tight

    def test_octahedron_tight(self):
        space = redraw_space(octahedron_skeleton())
        assert space.dimension == 4 and space.tight

    def test_4_simplex_tight(self):
        verts = [(0, 0, 0, 0)] + [tuple(int(i == j) for j in range(4)) for i in range(4)]
        skel = make_skeleton(4, verts, list(combinations(range(5), 2)))
        space = redraw_space(skel)
        assert space.dimension == 5 and space.tight
        assert space.constraint_rank == 15

    def test_4_cube_not_tight(self):
        # each of the four edge directions can be stretched on its own
        verts = list(product((0, 1), repeat=4))
        edges = [(i, j) for i, j in combinations(range(16), 2)
                 if sum(a != b for a, b in zip(verts[i], verts[j])) == 1]
        space = redraw_space(make_skeleton(4, verts, edges))
        assert space.dimension == 8 and not space.tight

    def test_icosahedron_tight_approximate(self):
        space = redraw_space(icosahedron_skeleton(), tolerance=1e-9)
        assert space.arithmetic == "approximate"
        assert space.dimension == 4 and space.tight


class TestIndependentOracles:
    def test_square_rank_by_hand(self):
        # one cross-product row per edge of the unit square, written out;
        # rank checked with numpy instead of the module's elimination
        rows = [
            # edge (0,0)-(1,0), direction (1,0): -(q1y - q0y) = 0
            [0, 1, 0, -1, 0, 0, 0, 0],
            # edge (1,0)-(1,1), direction (0,1): q2x - q1x = 0
            [0, 0, -1, 0, 1, 0, 0, 0],
            # edge (1,1)-(0,1), direction (-1,0): q3y - q2y = 0
            [0, 0, 0, 0, 0, 1, 0, -1],
            # edge (0,1)-(0,0), direction (0,-1): q0x - q3x = 0
            [1, 0, 0, 0, 0, 0, -1, 0],
        ]
        assert np.linalg.matrix_rank(np.array(rows, dtype=float)) == 4
        assert redraw_space(square_skeleton()).dimension == 8 - 4

    @pytest.mark.parametrize(
        "builder,expected_dim",
        [(cube_skeleton, 6), (octahedron_skeleton, 4), (tetrahedron_skeleton, 4)],
    )
    def test_solids_against_numpy_cross(self, builder, expected_dim):
        skel = builder()
        n = len(skel.positions)
        rows = []
        for s, t in skel.edges:
            e = np.array(skel.positions[t], dtype=float) - np.array(
                skel.positions[s], dtype=float
            )
            for axis in range(3):
                basis = np.zeros(3)
                basis[axis] = 1.0
                coeff = np.cross(basis, e)
                row = np.zeros(3 * n)
                row[3 * t : 3 * t + 3] += coeff
                row[3 * s : 3 * s + 3] -= coeff
                rows.append(row)
        rank = np.linalg.matrix_rank(np.array(rows))
        assert 3 * n - rank == expected_dim
        assert redraw_space(skel).dimension == expected_dim


class TestInvariants:
    def test_homothety_family_annihilated(self):
        for builder in (triangle_skeleton, square_skeleton, cube_skeleton,
                        octahedron_skeleton):
            skel = builder()
            rows = constraint_rows(skel)
            d = skel.dim
            family = []
            for axis in range(d):
                vec = [0] * (len(skel.positions) * d)
                for v in range(len(skel.positions)):
                    vec[v * d + axis] = 1
                family.append(vec)
            family.append([x for p in skel.positions for x in p])
            for vec in family:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_dimension_at_least_d_plus_one(self):
        rng = random.Random(31)
        for _ in range(10):
            pts = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(6)}
            poly = hull(pts)
            if poly.affine_dim != 2:
                continue
            space = redraw_space(skeleton_from_polytope(poly))
            assert space.dimension >= 3

    def test_invariance_under_affine_maps(self):
        rng = random.Random(32)
        base = square_skeleton()
        d0 = redraw_space(base).dimension
        for _ in range(10):
            # random invertible rational map plus translation
            while True:
                m = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
                if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                    break
            t = [Fraction(rng.randint(-5, 5)) for _ in range(2)]
            moved = [
                tuple(sum(m[i][j] * x for j, x in enumerate(p)) + t[i] for i in range(2))
                for p in base.positions
            ]
            skel = make_skeleton(2, moved, base.edges)
            assert redraw_space(skel).dimension == d0

    def test_uniform_scaling_invariance(self):
        base = cube_skeleton()
        scaled = make_skeleton(
            3, [tuple(5 * x for x in p) for p in base.positions], base.edges
        )
        assert redraw_space(scaled).dimension == redraw_space(base).dimension

    def test_exact_and_approximate_agree_on_rational_fixtures(self):
        for builder in (triangle_skeleton, square_skeleton, cube_skeleton,
                        tetrahedron_skeleton, octahedron_skeleton):
            skel = builder()
            exact = redraw_space(skel)
            floated = make_skeleton(
                skel.dim,
                [tuple(float(x) for x in p) for p in skel.positions],
                skel.edges,
            )
            approx = redraw_space(floated)
            assert approx.arithmetic == "approximate"
            assert exact.dimension == approx.dimension
            assert exact.tight == approx.tight


class TestValidationAndEdgeCases:
    def test_repeated_vertices_rejected(self):
        with pytest.raises(ValueError):
            make_skeleton(2, [(0, 0), (0, 0)], [(0, 1)])

    def test_zero_length_edge_rejected(self):
        with pytest.raises(ValueError):
            make_skeleton(2, [(0, 0), (1, 0)], [(0, 0)])

    def test_empty_edge_set_rejected(self):
        skel = make_skeleton(2, [(0, 0), (1, 0)], [])
        with pytest.raises(ValueError):
            redraw_space(skel)

    def test_wrong_rank_is_an_internal_inconsistency(self, monkeypatch):
        # a rank that leaves fewer than d+1 dimensions must not pass silently
        monkeypatch.setattr("polymix.redraw.int_rank", lambda rows: len(rows))
        with pytest.raises(InternalInconsistencyError):
            redraw_space(cube_skeleton())

    def test_segment_is_tight(self):
        skel = make_skeleton(1, [(0,), (2,)], [(0, 1)])
        space = redraw_space(skel)
        assert space.dimension == 2 and space.tight

    def test_is_tight_from_polytope(self, ledrappier):
        poly = hull(ledrappier.support())
        assert is_tight(skeleton_from_polytope(poly))
