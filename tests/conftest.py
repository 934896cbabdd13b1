import random
from pathlib import Path

import pytest

from polymix import make_poly

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def ledrappier():
    return make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)])


@pytest.fixture
def quad():
    return make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((2, 0), 1), ((0, 1), 1)])


@pytest.fixture
def square_f3():
    return make_poly(3, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 2)])


@pytest.fixture
def all_fixtures(ledrappier, quad, square_f3):
    return [ledrappier, quad, square_f3]


def random_poly(rng: random.Random, p: int, dim: int, max_terms=4, lo=0, hi=3,
                nonzero=False):
    """Random canonical polynomial with exponents in [lo, hi]^dim."""
    while True:
        n = rng.randint(0 if not nonzero else 1, max_terms)
        terms = [
            (tuple(rng.randint(lo, hi) for _ in range(dim)), rng.randint(1, p - 1))
            for _ in range(n)
        ]
        poly = make_poly(p, dim, terms)
        if not nonzero or not poly.is_zero:
            return poly


def generic_poly(rng: random.Random, p: int, nterms=5, span=3):
    """Non-monomial polynomial in two variables with exactly ``nterms`` terms."""
    points = [(x, y) for x in range(span + 1) for y in range(span + 1)]
    return make_poly(p, 2, [(e, rng.randint(1, p - 1)) for e in rng.sample(points, nterms)])


def divide_from_scratch(g, f, quotient=None):
    """Residue of g mod <f> by textbook division, sharing nothing with quotient.

    Normalizes f, lifts g out of negative exponents, and cancels the
    grlex-largest divisible term until none is left (last variable most
    significant on degree ties).  Each step's quotient term goes into the
    dict ``quotient`` when one is given.
    """
    p = f.p

    def key(e):
        return (sum(e), tuple(reversed(e)))

    base = f.min_exponents()
    fhat = {tuple(a - b for a, b in zip(e, base)): c for e, c in f.terms.items()}
    lt = max(fhat, key=key)
    inv = pow(fhat[lt], p - 2, p)
    lift = [min(0, m) for m in g.min_exponents()] if g.terms else [0] * g.dim
    work = {tuple(a - b for a, b in zip(e, lift)): c for e, c in g.terms.items()}
    while True:
        divisible = [e for e in work if all(a >= b for a, b in zip(e, lt))]
        if not divisible:
            return make_poly(p, g.dim, work.items())
        e = max(divisible, key=key)
        q = work[e] * inv % p
        if quotient is not None:
            quotient[tuple(a - b for a, b in zip(e, lt))] = q
        for fe, fc in fhat.items():
            te = tuple(a - b + c for a, b, c in zip(e, lt, fe))
            value = (work.get(te, 0) - q * fc) % p
            if value:
                work[te] = value
            else:
                work.pop(te, None)


# -- catalog solids for the tightness tests ---------------------------------


def triangle_skeleton():
    from polymix import make_skeleton

    return make_skeleton(2, [(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 2), (0, 2)])


def square_skeleton():
    from polymix import make_skeleton

    return make_skeleton(2, [(0, 0), (1, 0), (1, 1), (0, 1)],
                         [(0, 1), (1, 2), (2, 3), (3, 0)])


def cube_skeleton():
    from polymix import make_skeleton

    verts = [(x, y, z) for z in (0, 1) for y in (0, 1) for x in (0, 1)]
    edges = [
        (i, j)
        for i in range(8)
        for j in range(i + 1, 8)
        if sum(a != b for a, b in zip(verts[i], verts[j])) == 1
    ]
    return make_skeleton(3, verts, edges)


def tetrahedron_skeleton():
    from polymix import make_skeleton

    verts = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    return make_skeleton(3, verts, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def octahedron_skeleton():
    from polymix import make_skeleton

    verts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    edges = [
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if not all(a == -b for a, b in zip(verts[i], verts[j]))
    ]
    return make_skeleton(3, verts, edges)


def icosahedron_skeleton():
    from itertools import combinations

    from polymix import make_skeleton

    phi = (1 + 5 ** 0.5) / 2
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    edges = [
        (i, j)
        for i, j in combinations(range(12), 2)
        if abs(sum((x - y) ** 2 for x, y in zip(verts[i], verts[j])) - 4.0) < 1e-9
    ]
    assert len(edges) == 30
    return make_skeleton(3, verts, edges)
