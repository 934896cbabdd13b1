import random
import sys
import types
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from polymix import hull, make_skeleton, redraw_space, skeleton_from_polytope
from polymix import redraw
from polymix.errors import InternalInconsistencyError
from polymix.lattice import int_rank
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
        space = redraw_space(icosahedron_skeleton())
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

    def test_non_integer_edge_endpoint_rejected(self):
        # not read as int(1.7) = 1
        with pytest.raises(ValueError, match="non-integer"):
            make_skeleton(2, [(0, 0), (1, 0), (0, 1)], [(0, 1.7), (1, 2)])

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

    def test_tight_from_polytope(self, ledrappier):
        poly = hull(ledrappier.support())
        assert redraw_space(skeleton_from_polytope(poly)).tight


def oracle_space(skel):
    """Dimension and rank of the parallelism system over the d*V vertex coordinates."""
    rank = int_rank(constraint_rows(skel))
    return len(skel.positions) * skel.dim - rank, rank


def hull_skeletons(rng, per_dim):
    """Hull skeletons of random lattice point sets, ``per_dim`` of each affine dimension 1-5."""
    found = {k: [] for k in range(1, 6)}
    while any(len(found[k]) < per_dim for k in found):
        k = rng.randint(1, 5)
        d = rng.randint(k, min(5, k + 1))
        basis = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(d)]
        base = [rng.randint(-3, 3) for _ in range(d)]
        pts = set()
        for _ in range(rng.randint(k + 1, k + 6)):
            y = [rng.randint(0, 3) for _ in range(k)]
            pts.add(tuple(b + sum(a * c for a, c in zip(row, y)) for b, row in zip(base, basis)))
        poly = hull(pts)
        if poly.affine_dim and len(found[poly.affine_dim]) < per_dim:
            found[poly.affine_dim].append(skeleton_from_polytope(poly))
    return [skel for k in found for skel in found[k]]


def cube_skeleton_of_dim(d):
    verts = list(product((0, 1), repeat=d))
    edges = [(i, j) for i, j in combinations(range(len(verts)), 2)
             if sum(a != b for a, b in zip(verts[i], verts[j])) == 1]
    return make_skeleton(d, verts, edges)


def zonotope_skeleton(rng, d, generators):
    gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(generators)]
    pts = {tuple(sum(g[i] for g, on in zip(gens, mask) if on) for i in range(d))
           for mask in product((0, 1), repeat=generators)}
    return skeleton_from_polytope(hull(pts))


def abstract_skeleton(rng):
    """A random graph with Fraction or integer positions in 1-3 dimensions.

    Some get a collinear 3-cycle (a point on the line through two others,
    joined to both), some two components on disjoint vertex sets, and
    some repeated or reversed edges; vertices may be on no edge at all.
    """
    d = rng.randint(1, 3)
    den = rng.choice((1, 1, 2, 3))
    positions = set()
    while len(positions) < rng.randint(2, 8):
        positions.add(tuple(Fraction(rng.randint(-4, 4), den) for _ in range(d)))
    positions = sorted(positions)
    n = len(positions)
    edges = []
    if rng.random() < 0.4:
        a, b = rng.sample(range(n), 2)
        t = rng.choice((Fraction(1, 2), Fraction(2), Fraction(-1), Fraction(1, 3)))
        c = tuple(p + t * (q - p) for p, q in zip(positions[a], positions[b]))
        if c not in positions:
            positions.append(c)
            edges += [(a, b), (b, n), (n, a)]
            n += 1
    cut = rng.randint(2, n - 2) if n >= 4 and rng.random() < 0.7 else n
    for part in (range(cut), range(cut, n)):
        edges += [e for e in combinations(part, 2) if rng.random() < 0.6]
    for s, t in rng.sample(edges, min(len(edges), rng.randint(0, 2))):
        edges.append(rng.choice(((s, t), (t, s))))
    rng.shuffle(edges)
    return make_skeleton(d, positions, edges or [(0, 1)])


def has_collinear_triangle(skel):
    pairs = {frozenset(e) for e in skel.edges}
    for a, b, c in combinations(range(len(skel.positions)), 3):
        if {frozenset((a, b)), frozenset((b, c)), frozenset((a, c))} <= pairs:
            u = [y - x for x, y in zip(skel.positions[a], skel.positions[b])]
            v = [y - x for x, y in zip(skel.positions[a], skel.positions[c])]
            if all(u[i] * v[j] == u[j] * v[i] for i in range(skel.dim) for j in range(skel.dim)):
                return True
    return False


def edge_components(skel):
    """Components of the graph on the vertices that lie on an edge."""
    label = {}
    for s, t in skel.edges:
        a, b = label.setdefault(s, s), label.setdefault(t, t)
        if a != b:
            label = {v: a if x == b else x for v, x in label.items()}
    return len(set(label.values()))


def skeleton_corpus(rng):
    """500 hull skeletons, cubes, zonotopes, then 600 abstract skeletons."""
    return (
        hull_skeletons(rng, 100)
        + [cube_skeleton_of_dim(d) for d in range(1, 6)]
        + [zonotope_skeleton(rng, d, g) for d, g in [(2, 4), (3, 4), (3, 5), (3, 6), (4, 4),
                                                      (4, 5)] for _ in range(3)]
        + [abstract_skeleton(rng) for _ in range(600)]
    )


class TestEdgeScalesAgainstParallelismRows:
    """The edge-scale rank against the parallelism system over vertex coordinates."""

    SKELETONS = skeleton_corpus(random.Random(41))
    EXPECTED = [oracle_space(skel) for skel in SKELETONS]

    def test_matches_the_oracle(self):
        assert len(self.SKELETONS) >= 1000
        for skel, (dimension, rank) in zip(self.SKELETONS, self.EXPECTED):
            space = redraw_space(skel)
            assert (space.dimension, space.constraint_rank) == (dimension, rank), skel
            assert space.tight == (dimension == skel.dim + 1)
            assert space.arithmetic == "exact"

    def test_corpus_has_every_kind(self):
        abstract = self.SKELETONS[-600:]
        assert sum(map(has_collinear_triangle, abstract)) >= 100
        assert sum(edge_components(s) >= 2 for s in abstract) >= 60
        assert sum(len({v for e in s.edges for v in e}) < len(s.positions)
                   for s in abstract) >= 100
        assert sum(len(set(map(frozenset, s.edges))) < len(s.edges) for s in abstract) >= 100
        assert sum(any(isinstance(x, Fraction) and x.denominator > 1 for p in s.positions
                       for x in p) for s in abstract) >= 100
        assert {s.dim for s in abstract} == {1, 2, 3}

    def test_exact_path_never_builds_parallelism_rows(self, monkeypatch):
        def refuse(skeleton):
            raise AssertionError("constraint_rows called on the exact path")

        monkeypatch.setattr("polymix.redraw.constraint_rows", refuse)
        assert redraw_space(cube_skeleton_of_dim(4)).dimension == 8

    @pytest.mark.parametrize(
        "old, new",
        [
            # every 3-cycle shares one scale, also a collinear one
            ("if any(u[x] * v[y] != u[y] * v[x] for x in range(d) for y in range(x + 1, d)):",
             "if True:"),
            # one translation in all instead of one per component
            ("return d * components + len(column)", "return d + len(column)"),
            # the tree edge of the second vertex reached enters with the wrong sign
            ("u, sign = (s, 1) if v == t else (t, -1)",
             "u, sign = (s, 1) if v == t else (t, -1)\n"
             "        sign = -sign if i == order[1][1] else sign"),
        ],
        ids=["collinear_triangle_merged", "one_translation", "tree_edge_sign_flipped"],
    )
    def test_mutant_is_caught(self, monkeypatch, old, new):
        source = Path(redraw.__file__).read_text()
        assert source.count(old) == 1
        mutant = types.ModuleType("polymix.redraw_mutant")
        mutant.__package__ = "polymix"
        monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
        exec(compile(source.replace(old, new), redraw.__file__, "exec"), mutant.__dict__)
        caught = 0
        for skel, (dimension, _) in zip(self.SKELETONS, self.EXPECTED):
            try:
                caught += mutant.redraw_space(skel).dimension != dimension
            except InternalInconsistencyError:
                caught += 1
        assert caught
