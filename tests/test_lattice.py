import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from polymix import make_skeleton
from polymix.exactlp import in_convex_hull
from polymix.lattice import (
    apply_columns,
    column_reduce,
    complete_to_unimodular,
    content,
    int_det,
    int_rank,
    is_primitive,
    primitive,
)
from polymix.redraw import constraint_rows

from conftest import (
    cube_skeleton,
    octahedron_skeleton,
    square_skeleton,
    tetrahedron_skeleton,
    triangle_skeleton,
)


class TestPrimitive:
    def test_content(self):
        assert content((4, 6, -10)) == 2
        assert content((0, 0)) == 0
        assert content((0, 7)) == 7

    def test_primitive(self):
        assert primitive((4, 6)) == (2, 3)
        assert primitive((-3, 0)) == (-1, 0)
        with pytest.raises(ValueError):
            primitive((0, 0, 0))

    def test_is_primitive(self):
        assert is_primitive((3, 5))
        assert not is_primitive((2, 4))


class TestDeterminant:
    def test_known_values(self):
        assert int_det([[1, 2], [3, 4]]) == -2
        assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
        assert int_det([[1, 1], [1, 1]]) == 0
        assert int_det([]) == 1  # the empty determinant

    def test_against_expansion(self):
        rng = random.Random(81)
        for _ in range(50):
            m = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            expected = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
            assert int_det([row[:] for row in m]) == expected


def _rank_fraction(rows):
    """Reference rank: Gauss-Jordan elimination over Fractions."""
    if not rows:
        return 0
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        scale = m[rank][col]
        m[rank] = [x / scale for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def _random_rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _random_rational_skeleton(rng, d):
    n = rng.randint(d + 1, d + 3)
    positions = set()
    while len(positions) < n:
        positions.add(tuple(_random_rational(rng) for _ in range(d)))
    positions = sorted(positions)
    pairs = list(combinations(range(n), 2))
    edges = rng.sample(pairs, rng.randint(1, len(pairs)))
    return make_skeleton(d, positions, edges)


class TestIntRank:
    def test_known_values(self):
        assert int_rank([]) == 0
        assert int_rank([[0, 0], [0, 0]]) == 0
        assert int_rank([[1, 2], [2, 4]]) == 1
        assert int_rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
        assert int_rank([[0, 1, 0], [0, 0, 1], [0, 2, 3]]) == 2

    def test_matches_fraction_elimination_on_low_rank_products(self):
        rng = random.Random(82)
        for _ in range(200):
            m, n, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 4)
            left = [[_random_rational(rng) for _ in range(r)] for _ in range(m)]
            right = [[_random_rational(rng) for _ in range(n)] for _ in range(r)]
            rows = [
                [sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0)) for j in range(n)]
                for i in range(m)
            ]
            assert int_rank(rows) == _rank_fraction(rows)

    def test_matches_fraction_elimination_on_skeletons(self):
        rng = random.Random(87)
        skeletons = [
            builder()
            for builder in (triangle_skeleton, square_skeleton, cube_skeleton,
                            tetrahedron_skeleton, octahedron_skeleton)
        ]
        skeletons += [_random_rational_skeleton(rng, rng.choice((2, 3, 4))) for _ in range(40)]
        for skel in skeletons:
            rows = constraint_rows(skel)
            assert int_rank(rows) == _rank_fraction(rows)


class TestColumnReduce:
    def test_zeroes_beyond_rank_and_stays_unimodular(self):
        rng = random.Random(83)
        for _ in range(40):
            d = rng.choice((2, 3, 4))
            n = rng.randint(1, 6)
            rows = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(n)]
            vcols, rank = column_reduce(rows, d)
            matrix = [[vcols[j][i] for j in range(d)] for i in range(d)]
            assert abs(int_det(matrix)) == 1
            for row in rows:
                image = apply_columns(vcols, row)
                assert all(x == 0 for x in image[rank:])

    def test_rank_matches_rational_rank(self):
        import numpy as np

        rng = random.Random(84)
        for _ in range(30):
            rows = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
            _, rank = column_reduce(rows, 3)
            expected = np.linalg.matrix_rank(np.array(rows, dtype=float))
            assert rank == expected


class TestCompleteToUnimodular:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_first_column_and_determinant(self, d):
        rng = random.Random(85 + d)
        done = 0
        while done < 40:
            v = tuple(rng.randint(-9, 9) for _ in range(d))
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            if g != 1:
                continue
            done += 1
            m = complete_to_unimodular(v)
            assert tuple(m[i][0] for i in range(d)) == v
            assert abs(int_det([row[:] for row in m])) == 1

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            complete_to_unimodular((2, 2))


def _inside_polygon(q, pts):
    """Independent 2D containment: orientation tests against the hull cycle."""
    hull_pts = sorted(set(pts))
    if len(hull_pts) == 1:
        return q == hull_pts[0]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in hull_pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(hull_pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    cycle = lower[:-1] + upper[:-1]
    if len(cycle) == 1:
        return q == cycle[0]
    if len(cycle) == 2:
        a, b = cycle
        if cross(a, b, q) != 0:
            return False
        lo = min(a, b)
        hi = max(a, b)
        return lo <= q <= hi
    return all(
        cross(cycle[i], cycle[(i + 1) % len(cycle)], q) >= 0
        for i in range(len(cycle))
    )


class TestSimplexAgainstGeometry:
    def test_membership_matches_orientation_oracle(self):
        rng = random.Random(86)
        for _ in range(300):
            pts = [
                (rng.randint(-4, 4), rng.randint(-4, 4))
                for _ in range(rng.randint(1, 6))
            ]
            q = (rng.randint(-5, 5), rng.randint(-5, 5))
            assert in_convex_hull(q, pts) == _inside_polygon(q, pts)
