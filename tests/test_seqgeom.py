import random
from fractions import Fraction
from math import gcd

import pytest

from polymix import (
    detect_redrawing,
    extend_basis,
    hull,
    make_poly,
    monomial_weight,
    outward_normal,
    snap_to_homothety,
)
from polymix.lattice import int_det, is_primitive
from polymix.seqgeom import _odd_power_sum


def frame_matrix(frame):
    d = len(frame.columns)
    return [[frame.columns[j][i] for j in range(d)] for i in range(d)]


class TestExtendBasis:
    @pytest.mark.parametrize("v1", [(1, 0), (1, 1), (0, 1)])
    def test_catalog_inputs(self, v1):
        frame = extend_basis(v1)
        assert frame.columns[0] == v1
        assert abs(int_det(frame_matrix(frame))) == 1
        for col in frame.columns[1:]:
            assert sum(a * b for a, b in zip(v1, col)) < 0

    def test_exact_first_example(self):
        assert extend_basis((1, 0)).columns == ((1, 0), (-1, 1))

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            extend_basis((2, 4))
        with pytest.raises(ValueError):
            extend_basis((0, 0))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_randomized_invariants(self, d):
        rng = random.Random(60 + d)
        count = 0
        while count < 100:
            v = tuple(rng.randint(-6, 6) for _ in range(d))
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            if g != 1:
                continue
            count += 1
            frame = extend_basis(v)
            assert frame.columns[0] == v
            assert abs(int_det(frame_matrix(frame))) == 1
            for col in frame.columns:
                assert is_primitive(col)
            for col in frame.columns[1:]:
                assert sum(a * b for a, b in zip(v, col)) < 0


class TestMonomialWeight:
    def test_dot_product(self):
        assert monomial_weight((2, 3), (1, 1)) == 5

    def test_zero_vector(self):
        assert monomial_weight((0, 0), (7, -3)) == 0

    def test_on_hyperplane(self):
        assert monomial_weight((1, -1), (1, 1)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            monomial_weight((1, 2, 3), (1, 1))

    def test_supporting_hyperplane_property(self, ledrappier, quad):
        # along an edge's outward normal, both endpoints weigh the same
        # and strictly more than every other vertex
        for f in (ledrappier, quad):
            poly = hull(f.support())
            for edge in poly.edges:
                w = outward_normal(poly, edge)
                weights = [monomial_weight(v, w) for v in poly.vertices]
                a, b = edge
                assert weights[a] == weights[b]
                for i, x in enumerate(weights):
                    if i not in edge:
                        assert x < weights[a]

    def test_supporting_hyperplane_3d(self):
        f = make_poly(
            2, 3,
            [((0, 0, 0), 1), ((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 1)],
        )
        poly = hull(f.support())
        assert poly.affine_dim == 3
        for edge in poly.edges:
            w = outward_normal(poly, edge)
            weights = [monomial_weight(v, w) for v in poly.vertices]
            top = max(weights)
            assert {i for i, x in enumerate(weights) if x == top} == set(edge)


class TestDetectRedrawing:
    def test_exact_dilation(self, ledrappier):
        match = detect_redrawing(ledrappier, [(0, 0), (16, 0), (0, 16)], 0)
        assert match is not None and match.K == 0
        scale, translation = match.homothety
        assert scale == 16 and all(t == 0 for t in translation)

    def test_unit_perturbation(self, ledrappier):
        match = detect_redrawing(ledrappier, [(0, 0), (17, 0), (0, 16)], 1)
        assert match is not None and match.K == 1
        assert match.perturbations == ((0, 0), (-1, 0), (0, 0))

    def test_wrong_direction_no_match(self, ledrappier):
        assert detect_redrawing(ledrappier, [(0, 0), (16, 0), (16, 16)], 0) is None

    def test_dilation_sweep(self, ledrappier):
        for k in range(1, 1025):
            match = detect_redrawing(ledrappier, [(0, 0), (k, 0), (0, k)], 0)
            assert match.K == 0 and match.homothety[0] == k

    def test_translated_and_permuted_tuple(self, ledrappier):
        match = detect_redrawing(ledrappier, [(3, 11), (3, 3), (11, 3)], 0)
        assert match is not None and match.K == 0
        scale, translation = match.homothety
        assert scale == 8 and translation == (Fraction(3), Fraction(3))

    def test_pairing_invariant(self, ledrappier):
        match = detect_redrawing(ledrappier, [(0, 0), (17, 0), (0, 16)], 1)
        poly = hull(ledrappier.support())
        snapped = match.snapped
        for (a, b), (s, t) in match.pairing:
            diff = tuple(x - y for x, y in zip(snapped[t], snapped[s]))
            direction = tuple(
                x - y for x, y in zip(poly.vertices[b], poly.vertices[a])
            )
            cross = diff[0] * direction[1] - diff[1] * direction[0]
            assert cross == 0
            assert sum(d * e for d, e in zip(diff, direction)) > 0

    def test_extra_points_allowed(self, ledrappier):
        match = detect_redrawing(
            ledrappier, [(0, 0), (8, 0), (0, 8), (100, 100)], 0
        )
        assert match is not None
        assert match.perturbations[3] == (0, 0)

    def test_randomized_round_trip(self, ledrappier, quad):
        # perturb a genuine dilation by at most K per point; the detector
        # must recover some match within the same tolerance
        rng = random.Random(70)
        for f in (ledrappier, quad):
            poly = hull(f.support())
            verts = poly.vertices
            for _ in range(20):
                scale = rng.randint(2, 40)
                t = (rng.randint(-9, 9), rng.randint(-9, 9))
                cap = rng.randint(0, 2)
                pts = [
                    tuple(
                        scale * v + tt + rng.randint(-cap, cap)
                        for v, tt in zip(vertex, t)
                    )
                    for vertex in verts
                ]
                rng.shuffle(pts)
                match = detect_redrawing(f, pts, cap)
                assert match is not None
                assert match.K <= cap
                snapped = match.snapped
                for (a, b), (s, tt) in match.pairing:
                    diff = tuple(
                        x - y for x, y in zip(snapped[tt], snapped[s])
                    )
                    direction = tuple(
                        x - y for x, y in zip(verts[b], verts[a])
                    )
                    cross = diff[0] * direction[1] - diff[1] * direction[0]
                    assert cross == 0
                    assert sum(d * e for d, e in zip(diff, direction)) > 0

    def test_too_few_points_rejected(self, ledrappier):
        with pytest.raises(ValueError):
            detect_redrawing(ledrappier, [(0, 0), (1, 0)], 0)

    def test_4d_unimodular_simplex(self):
        # f = 1 + u1 + u2 + u3 + u4 over F_2; its dilation by 2^k, shifted
        simplex = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        f = make_poly(2, 4, [(v, 1) for v in simplex])
        shift = (3, -2, 5, 1)
        for k in (2, 3, 5):
            exact = [tuple(2 ** k * x + t for x, t in zip(v, shift)) for v in simplex]
            match = detect_redrawing(f, exact, 0)
            assert match is not None and match.K == 0
            assert match.homothety == (Fraction(2 ** k), tuple(map(Fraction, shift)))
            # a jitter of 1 that stretches edge 0-1 and shrinks edge 0-2 by 2
            # along their axes leaves scale 2^k as the only one within K = 1
            jitter = [(-1, 1, 0, 0), (1, 0, 0, 1), (0, -1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)]
            bumped = [tuple(a + b for a, b in zip(q, j)) for q, j in zip(exact, jitter)]
            assert detect_redrawing(f, bumped, 0) is None
            match = detect_redrawing(f, bumped, 1)
            assert match is not None and match.K == 1
            assert match.homothety[0] == 2 ** k

    def test_degenerate_polytope_rejected(self):
        f = make_poly(2, 2, [((0, 0), 1), ((1, 1), 1), ((2, 2), 1)])
        with pytest.raises(ValueError):
            detect_redrawing(f, [(0, 0), (1, 1), (2, 2)], 0)


    def test_budget_counts_root_placements_in_closed_form(self):
        # the detector budget's count: every perturbation of sup-norm c <= K
        for d in range(1, 6):
            for K in (0, 1, 2, 7, 30):
                assert _odd_power_sum(K, d) == sum((2 * c + 1) ** d for c in range(K + 1))


class TestSnapToHomothety:
    def test_frobenius_tuple_is_fixed_point(self, ledrappier):
        pts = [(0, 0), (8, 0), (0, 8)]
        match = detect_redrawing(ledrappier, pts, 0)
        snapped = snap_to_homothety(match, ledrappier)
        assert snapped.points == tuple(pts)
        assert snapped.scale == 8
        assert all(t == 0 for t in snapped.translation)

    def test_unit_perturbed_recovers_scale(self, ledrappier):
        match = detect_redrawing(ledrappier, [(0, 0), (17, 0), (0, 16)], 1)
        snapped = snap_to_homothety(match, ledrappier)
        assert snapped.points == ((0, 0), (16, 0), (0, 16))
        assert snapped.scale == 16

    def test_non_homothetic_redrawing_fails(self, square_f3):
        # axis-scaled rectangle: every edge parallel to the unit square's,
        # but no homothety exists (the square hull is not tight)
        match = detect_redrawing(square_f3, [(0, 0), (4, 0), (4, 2), (0, 2)], 0)
        assert match is not None and match.homothety is None
        with pytest.raises(ValueError, match="redrawing, not homothety"):
            snap_to_homothety(match, square_f3)
