import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest

from polymix import (
    BudgetExceededError,
    detect_redrawing,
    hull,
    make_poly,
    outward_normal,
)
from polymix import budgets, seqgeom
from polymix.seqgeom import _homothety_of


def dot(a, b):
    """The weight of the monomial u^a along the direction b."""
    return sum(x * y for x, y in zip(a, b))


def snapped(match):
    """The matched points after adding their perturbations."""
    return tuple(tuple(map(sum, zip(pt, d))) for pt, d in zip(match.points, match.perturbations))


class TestMonomialWeight:
    def test_supporting_hyperplane_property(self, ledrappier, quad):
        # along an edge's outward normal, both endpoints weigh the same
        # and strictly more than every other vertex
        for f in (ledrappier, quad):
            poly = hull(f.support())
            for edge in poly.edges:
                w = outward_normal(poly, edge)
                weights = [dot(v, w) for v in poly.vertices]
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
            weights = [dot(v, w) for v in poly.vertices]
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

    @pytest.mark.parametrize("points, message", [
        ([(0, 0, 0), (2, 0, 5), (0, 2, 1)], "wrong dimension"),  # zip would drop the third axis
        ([(0,), (2,), (0,)], "wrong dimension"),
        ([(0.5, 0), (2, 0), (0, 2)], "non-integer"),  # int() would round it to a match
    ], ids=["3-D", "1-D", "float"])
    def test_points_that_are_not_integer_vectors_of_f_refused(self, ledrappier, points, message):
        with pytest.raises(ValueError, match=message):
            detect_redrawing(ledrappier, points, 0)

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
        moved = snapped(match)
        for (a, b), (s, t) in match.pairing:
            diff = tuple(x - y for x, y in zip(moved[t], moved[s]))
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
                # the cap the match was found at is its largest perturbation
                # and no smaller cap matches
                assert match.K == max(max(map(abs, d)) for d in match.perturbations)
                if match.K:
                    assert detect_redrawing(f, pts, match.K - 1) is None
                moved = snapped(match)
                for (a, b), (s, tt) in match.pairing:
                    diff = tuple(
                        x - y for x, y in zip(moved[tt], moved[s])
                    )
                    direction = tuple(
                        x - y for x, y in zip(verts[b], verts[a])
                    )
                    cross = diff[0] * direction[1] - diff[1] * direction[0]
                    assert cross == 0
                    assert sum(d * e for d, e in zip(diff, direction)) > 0

    def test_hopeless_cap_in_16d_ends_at_the_budget(self, monkeypatch):
        # cap 1 has 3^16 root perturbations; they are made as they are
        # counted, so the budget ends the search before the box is built
        monkeypatch.delenv("POLYMIX_BUDGET", raising=False)
        d = 16
        unit = [(0,) * d] + [tuple(int(i == j) for i in range(d)) for j in range(d)]
        f = make_poly(2, d, [(v, 1) for v in unit])
        pts = [tuple(3 * x for x in v) for v in unit]
        pts[1] = (10,) + pts[1][1:]
        with pytest.raises(BudgetExceededError, match=f"^detector budget: {10 ** 4 + 1} "):
            detect_redrawing(f, pts, 1)

    def test_one_detect_reads_the_budget_once(self, monkeypatch, ledrappier):
        # between 100 and 300 placements (caps 0-2 fail exhaustively), each
        # compared against the limit read before the first
        monkeypatch.delenv("POLYMIX_BUDGET", raising=False)
        monkeypatch.setattr(seqgeom, "hull", lambda support, poly=hull(ledrappier.support()): poly)
        with mock.patch.object(budgets, "_override", wraps=budgets._override) as reads:
            match = detect_redrawing(ledrappier, [(0, 0), (20, 5), (4, 20)], 10)
        assert match.K == 3
        assert reads.call_count == 1

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

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_larger_K_returns_the_minimal_match(self, d):
        # a dilated, shifted simplex jittered by at most 1 per coordinate: every
        # K from the minimal one up answers with the same match, as the caps
        # above the minimal one are never searched
        unit = [(0,) * d] + [tuple(int(i == j) for i in range(d)) for j in range(d)]
        f = make_poly(2, d, [(v, 1) for v in unit])
        rng = random.Random(90 + d)
        for _ in range(4):
            scale = rng.randint(2, 40)
            shift = [rng.randint(-9, 9) for _ in range(d)]
            pts = [tuple(scale * x + t + rng.randint(-1, 1) for x, t in zip(v, shift))
                   for v in unit]
            rng.shuffle(pts)
            match = detect_redrawing(f, pts, 1)
            assert match is not None
            for K in range(match.K, match.K + 11):
                assert detect_redrawing(f, pts, K) == match


def homothety_reference(verts, positions):
    """The homothety test as first written: a scale from every coordinate, then a check."""
    v0, q0 = verts[0], positions[0]
    scale = None
    for v, q in zip(verts[1:], positions[1:]):
        dv = [a - b for a, b in zip(v, v0)]
        dq = [a - b for a, b in zip(q, q0)]
        for num, den in zip(dq, dv):
            if den != 0:
                candidate = Fraction(num, den)
                if scale is None:
                    scale = candidate
                elif scale != candidate:
                    return None
            elif num != 0:
                return None
    if scale is None or scale <= 0:
        return None
    t = tuple(Fraction(q) - scale * v for q, v in zip(q0, v0))
    for v, q in zip(verts, positions):
        if any(Fraction(qi) != scale * vi + ti for qi, vi, ti in zip(q, v, t)):
            return None
    return scale, t


class TestHomothetyOracle:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_agrees_with_reference(self, d):
        rng = random.Random(80 + d)
        scales = [Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 3),
                  Fraction(0), Fraction(-1), Fraction(-5, 2)]
        outcomes = set()
        for _ in range(60):
            n = rng.randint(2, 8)
            verts = rng.sample(list(product(range(-4, 5), repeat=d)), n)
            t = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2))) for _ in range(d))
            for s in scales:
                positions = [tuple(s * x + ti for x, ti in zip(v, t)) for v in verts]
                want = homothety_reference(verts, positions)
                assert _homothety_of(verts, positions) == want
                outcomes.add(want is not None)
                # one coordinate of one position bumped
                i, j = rng.randrange(n), rng.randrange(d)
                bumped = list(positions)
                bumped[i] = tuple(x + (k == j) * rng.choice((-1, 1)) for k, x in enumerate(bumped[i]))
                want = homothety_reference(verts, bumped)
                assert _homothety_of(verts, bumped) == want
                outcomes.add(want is not None)
        assert outcomes == {True, False}


class TestHomothety:
    def test_frobenius_tuple_is_fixed_point(self, ledrappier):
        pts = [(0, 0), (8, 0), (0, 8)]
        match = detect_redrawing(ledrappier, pts, 0)
        assert snapped(match) == tuple(pts)
        scale, translation = match.homothety
        assert scale == 8
        assert all(t == 0 for t in translation)

    def test_unit_perturbed_recovers_scale(self, ledrappier):
        match = detect_redrawing(ledrappier, [(0, 0), (17, 0), (0, 16)], 1)
        assert snapped(match) == ((0, 0), (16, 0), (0, 16))
        assert match.homothety[0] == 16

    def test_non_homothetic_redrawing_fails(self, square_f3):
        # axis-scaled rectangle: every edge parallel to the unit square's,
        # but no homothety exists (the square hull is not tight)
        match = detect_redrawing(square_f3, [(0, 0), (4, 0), (4, 2), (0, 2)], 0)
        assert match is not None and match.homothety is None
