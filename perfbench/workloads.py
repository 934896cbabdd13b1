"""Seeded query lists for the three workloads, with their expected answers.

``build(name, seed, workdir, seconds)`` writes the input files into
``workdir`` and returns ``(queries, coldstart)``.  Each query is a JSON-ready dict:

    argv    arguments for ``polymix.cli.main``
    kind    query kind, used for warm-up and per-kind reporting
    curve   size class for the latency curves (by k, window cells or points)
    expect  the expected answer, computed here by ``oracles`` (and, for box
            queries, by the exact path), never by the path under test
    poly    the polynomial's canonical key (see ``poly_key``), if it has one

Lists are stratified: a *unit* fixes how many queries of each kind and
size class it holds (a slot given as a list alternates between units), and
the list is a sequence of units with fresh random draws, shuffled inside
each unit.  The client stops at a unit boundary, so every measured prefix
keeps the mix.  The number of units grows with the run length: the spread
between seeds falls with the number of distinct queries, not with
repetitions.

The client answers each unit in a fresh process, so state that polymix
keeps between calls can only be reused inside a unit.  No two queries of
a unit share a polynomial (``poly`` below, up to translation and a scalar
factor), so a memo keyed on the polynomial never hits; it would not hit
across calls of the one-shot polymix command either.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np

import oracles

# Units per second of run time, 2 to 3.4 times what the seed code
# completes; a faster program answers the list again, in fresh processes.
UNITS_PER_SECOND = {"shapes": 6.0, "measures": 5.0, "geometry": 1.3}
MIN_UNITS = 4

# Size classes for the latency curves, (label, low, high) inclusive.
CURVES = {
    "shapes": ("k", [(0, 3), (4, 8), (9, 12)]),
    "measures": ("cells", [(1, 40), (41, 120), (121, 400)]),
    "geometry": ("points", [(4, 15), (16, 25), (26, 40)]),
}


def curve_names() -> list[str]:
    return [
        f"curve.{w}.{axis}_{lo}_{hi}.p50_ms"
        for w, (axis, classes) in CURVES.items()
        for lo, hi in classes
    ]


def _curve(workload: str, size: int) -> str:
    axis, classes = CURVES[workload]
    for lo, hi in classes:
        if lo <= size <= hi:
            return f"curve.{workload}.{axis}_{lo}_{hi}.p50_ms"
    raise ValueError(f"{workload} size {size} is outside every curve class")


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def json(self, tag: str, data) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:04d}_{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path


def _poly_json(p: int, terms: dict) -> dict:
    d = len(next(iter(terms)))
    return {"p": p, "d": d, "terms": [{"e": list(e), "c": c} for e, c in sorted(terms.items())]}


def poly_key(p: int, terms: dict) -> str:
    """f up to translation and a nonzero scalar: both give the same ideal."""
    support = sorted(terms)
    base = [min(e[i] for e in support) for i in range(len(support[0]))]
    inv = pow(terms[support[0]], p - 2, p)
    return _inline([p] + [[[a - b for a, b in zip(e, base)], terms[e] * inv % p] for e in support])


def _inline(data) -> str:
    return json.dumps(data, separators=(",", ":"))


# -- polynomials ------------------------------------------------------------------

TRINOMIAL_STEPS = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)]
# Over F_3 the residues of these triangles fill up under Frobenius rounds,
# so certificates cost about 100x more than for the other triangles; lists
# draw them in a slot of their own so every unit holds the same number.
DENSE_STEPS = [((1, 1), (2, 1)), ((1, 1), (1, 2)), ((1, 1), (0, 2)), ((2, 1), (1, 2))]
SPARSE_STEPS = [(a, b) for i, a in enumerate(TRINOMIAL_STEPS) for b in TRINOMIAL_STEPS[i + 1:]
                if a[0] * b[1] - a[1] * b[0] != 0 and (a, b) not in DENSE_STEPS]


def _trinomial(rng: random.Random, p: int, steps=None) -> dict:
    """Ledrappier-type c0 + c1 u^a + c2 u^b with a small triangle."""
    a, b = rng.choice(steps or DENSE_STEPS + SPARSE_STEPS)
    return {(0, 0): rng.randint(1, p - 1), a: rng.randint(1, p - 1), b: rng.randint(1, p - 1)}


def _generic(rng: random.Random, p: int, nterms: int, span: int) -> dict:
    """nterms distinct points of [0, span]^2, touching both axes, not collinear."""
    while True:
        pts = set()
        while len(pts) < nterms:
            pts.add((rng.randint(0, span), rng.randint(0, span)))
        m0 = min(x for x, _ in pts)
        m1 = min(y for _, y in pts)
        pts = {(x - m0, y - m1) for x, y in pts}
        if len(pts) == nterms and oracles.affine_rank(sorted(pts)) == 2:
            return {e: rng.randint(1, p - 1) for e in pts}


def _unimodular(rng: random.Random, d: int) -> list[list[int]]:
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(d + 1):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((-1, 1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    return m


def _unimodular_simplex(rng: random.Random, d: int) -> list[tuple[int, ...]]:
    a = _unimodular(rng, d)
    base = [rng.randint(-2, 2) for _ in range(d)]
    cols = [[0] * d] + [[a[i][j] for i in range(d)] for j in range(d)]
    return [tuple(b + c for b, c in zip(base, col)) for col in cols]


# -- shapes ---------------------------------------------------------------------


def _certificate_expect(p: int, terms: dict, k: int) -> dict:
    shape = sorted(terms)
    return {
        "shape": [list(n) for n in shape],
        "coeffs": [terms[n] for n in shape],
        "verified_k": list(range(k + 1)),
    }


def _shapes_query(rng, w: _Writer, slot) -> dict:
    kind, family, p, k = slot[:4]
    if family == "generic":
        terms = _generic(rng, p, slot[4], 2)
    elif family == "corners":
        terms = _generic(rng, p, 4, 1)
    else:
        terms = _trinomial(rng, p, DENSE_STEPS if family == "dense" else SPARSE_STEPS)
    path = w.json("poly", _poly_json(p, terms))
    if kind == "search":
        r = k
        argv = ["search", path, "--r", str(r), "--radius", "1"]
        expect = {"p": p, "terms": _terms_list(terms), "r": r}
        size = 1
    else:
        argv = [kind, path, "--max-k", str(k)]
        expect = {"p": p, "terms": _terms_list(terms), **_certificate_expect(p, terms, k)}
        if kind == "analyze":
            expect["vertex_count"] = oracles.hull_vertex_count(sorted(terms))
        size = k
    return {"kind": kind, "argv": argv, "curve": _curve("shapes", size), "expect": expect,
            "poly": poly_key(p, terms)}


def _terms_list(terms: dict) -> list:
    return [[list(e), c] for e, c in sorted(terms.items())]


# (kind, family, p, k -- or r for search[, number of terms]).  The four
# slowest slots (dense certificates and F_2 searches) are 16% of a unit, so
# query_p90_ms falls inside their cluster, not on the steep edge below it.
SHAPES_UNIT = [
    ("certify", "generic", 5, 2, 4),
    ("certify", "generic", 5, 2, 6),
    ("certify", "generic", 5, 3, 4),
    ("certify", "generic", 5, 3, 5),
    ("certify", "generic", 7, 2, 4),
    ("certify", "generic", 7, 2, 5),
    ("certify", "generic", 7, 2, 6),
    ("certify", "corners", 5, 4),
    ("certify", "corners", 7, 4),
    ("analyze", "generic", 5, 2, 5),
    ("analyze", "generic", 5, 3, 5),
    ("analyze", "generic", 7, 2, 5),
    ("certify", "trinomial", 2, 8),
    ("certify", "trinomial", 2, 10),
    ("certify", "trinomial", 2, 12),
    ("certify", "trinomial", 3, 6),
    ("certify", "dense", 3, 9),
    ("certify", "dense", 3, 9),
    ("certify", "trinomial", 3, 12),
    ("analyze", "trinomial", 2, 7),
    ("analyze", "trinomial", 2, 11),
    ("analyze", "trinomial", 3, 5),
    ("search", "trinomial", 2, 3),
    ("search", "trinomial", 2, 3),
    ("search", "trinomial", 3, 2),
]


def _shapes(rng, w: _Writer, units: int):
    cold = _shapes_query(rng, w, ("certify", "trinomial", 2, 1))
    return _units(rng, w, SHAPES_UNIT, units, _shapes_query), cold


# -- measures --------------------------------------------------------------------


def _measure_poly(rng, p: int) -> dict:
    if p == 5:
        return _generic(rng, p, 4, 2)
    return _trinomial(rng, p)


def _rect(rng, a: int, b: int) -> list[tuple[int, int]]:
    ox, oy = rng.randint(-3, 3), rng.randint(-3, 3)
    return [(ox + i, oy + j) for i in range(a) for j in range(b)]


def _scattered(rng, side: int, density: float = 0.45) -> list[tuple[int, int]]:
    cells = [(i, j) for i in range(side) for j in range(side) if rng.random() < density]
    # keep the bounding box at full size so the class reflects the extent
    return sorted(set(cells) | {(0, 0), (side - 1, side - 1)})


def _values(rng, system: oracles.WindowSystem) -> list[int]:
    """Values of a configuration of X half the time, else uniform ones."""
    if rng.random() < 0.5:
        return system.random_values(rng)
    return [rng.randrange(system.p) for _ in system.window]


def _cylinder_json(window, values) -> dict:
    return {"window": [list(c) for c in window], "values": list(values)}


def _window(rng, spec) -> list[tuple[int, int]]:
    if spec[0] == "rect":
        a, b = spec[1:] if rng.random() < 0.5 else spec[:0:-1]
        return _rect(rng, a, b)
    return _scattered(rng, spec[1])


def _measures_query(rng, w: _Writer, slot) -> dict:
    kind, p, spec = slot
    terms = _measure_poly(rng, p)
    poly_path = w.json("poly", _poly_json(p, terms))
    if kind in ("exact", "box"):
        window = _window(rng, spec)
        system = oracles.WindowSystem(terms, p, window)
        values = _values(rng, system)
        cyl = w.json("cyl", _cylinder_json(window, values))
        argv = ["measure", poly_path, "--cylinder", cyl]
        exponent = system.measure(values)
        expect = {"value": fraction_json(oracles.measure_fraction(p, exponent))}
        if kind == "box":
            argv += ["--method", "box"]
            expect["box"] = {"p": p, "terms": _terms_list(terms), "window": window, "values": values}
        return {"kind": f"measure-{kind}", "argv": argv, "curve": _curve("measures", len(window)), "expect": expect,
                "poly": poly_key(p, terms)}
    if kind == "joint":
        window = _rect(rng, 3, 2)
        values = _values(rng, oracles.WindowSystem(terms, p, window))
        shifts = [(0, 0)] + [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(2)]
        cyl = w.json("cyl", _cylinder_json(window, values))
        value = oracles.event_measure(terms, p, [(s, window, values) for s in shifts])
        argv = ["measure", poly_path, "--cylinder", cyl, "--shifts", _inline([list(s) for s in shifts])]
        cells = len(window) * len(shifts)
        return {"kind": "measure-joint", "argv": argv, "curve": _curve("measures", cells),
                "expect": {"value": fraction_json(value)}, "poly": poly_key(p, terms)}
    # experiment: joint vs product along k * shape
    shape = [(0, 0)] + rng.sample([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)], 2)
    window = _rect(rng, 2, 1)
    values = _values(rng, oracles.WindowSystem(terms, p, window))
    k_hi = 5
    single = oracles.event_measure(terms, p, [((0, 0), window, values)])
    rows = []
    for k in range(1, k_hi + 1):
        joint = oracles.event_measure(terms, p, [((k * a, k * b), window, values) for a, b in shape])
        product_ = single ** len(shape)
        rows.append({"k": k, "available": True, "joint": fraction_json(joint),
                     "product": fraction_json(product_), "gap": fraction_json(joint - product_)})
    cyl = w.json("cyl", _cylinder_json(window, values))
    argv = ["experiment", poly_path, "--shape", _inline([list(s) for s in shape]),
            "--cylinder", cyl, "--k-range", f"1:{k_hi}"]
    cells = len(window) * len(shape)
    return {"kind": "experiment", "argv": argv, "curve": _curve("measures", cells), "expect": {"rows": rows},
            "poly": poly_key(p, terms)}


def fraction_json(x) -> dict:
    return {"num": x.numerator, "den": x.denominator}


# (kind, p, window: a rectangle's sides or a scattered set's box side)
MEASURES_UNIT = [
    ("exact", 2, ("rect", 4, 4)),
    ("exact", 3, ("rect", 6, 5)),
    ("exact", 5, ("rect", 8, 7)),
    ("exact", 2, ("rect", 10, 9)),
    ("exact", 3, ("rect", 13, 12)),
    ("exact", 2, ("scattered", 8)),
    ("exact", 3, ("scattered", 10)),
    ("exact", 5, ("scattered", 12)),
    ("joint", 2, None),
    ("joint", 3, None),
    ("joint", 5, None),
    ("experiment", 2, None),
    ("experiment", 3, None),
    ("box", 2, ("rect", 5, 5)),
    ("box", 3, ("rect", 5, 4)),
    ("box", 5, ("scattered", 5)),
    ("box", 2, ("scattered", 6)),
]


def _measures(rng, w: _Writer, units: int):
    # one cell of a non-monomial f always has measure 1/p
    poly_path = w.json("poly", _poly_json(2, _trinomial(rng, 2)))
    cyl = w.json("cyl", _cylinder_json([(0, 0)], [1]))
    cold = {"kind": "measure-exact", "argv": ["measure", poly_path, "--cylinder", cyl],
            "curve": _curve("measures", 1), "expect": {"value": {"num": 1, "den": 2}}}
    return _units(rng, w, MEASURES_UNIT, units, _measures_query), cold


# -- geometry ---------------------------------------------------------------------


def _distinct_points(rng, n: int, gen) -> list[tuple[int, ...]]:
    pts: set = set()
    while len(pts) < n:
        pts.add(gen())
    return sorted(pts)


def _support_expect(pts) -> dict:
    k = oracles.affine_rank(pts)
    simplicial = k >= 3 and k == len(pts[0]) and oracles.simplicial(pts)
    return {"vertex_count": oracles.hull_vertex_count(pts), "support_size": len(pts),
            "affine_dim": k, "simplicial": simplicial}


def _bounds_query(rng, w: _Writer, pts, p: int = 2) -> dict:
    terms = {e: rng.randint(1, p - 1) for e in pts}
    path = w.json("poly", _poly_json(p, terms))
    return {"kind": "bounds", "argv": ["bounds", path], "curve": _curve("geometry", max(4, len(pts))),
            "expect": _support_expect(pts), "poly": poly_key(p, terms)}


def _skeleton_edges(points: np.ndarray) -> tuple[list[int], list[tuple[int, int]]]:
    from scipy.spatial import ConvexHull

    hull = ConvexHull(points)
    verts = sorted(set(int(v) for v in hull.vertices))
    index = {v: i for i, v in enumerate(verts)}
    edges = set()
    for simplex in hull.simplices:
        for a, b in combinations(sorted(int(s) for s in simplex), 2):
            edges.add((index[a], index[b]))
    return verts, sorted(edges)


def _tightness_query(rng, w: _Writer, variant: str) -> dict:
    simplicial = False
    if variant == "exact-simplicial":
        while True:  # 8 lattice points near a sphere, all of them vertices
            pts = np.array(_distinct_points(rng, 8, lambda: tuple(round(60 * x) for x in _unit_vector(rng))))
            verts, edges = _skeleton_edges(pts.astype(float))
            vpts = [tuple(int(x) for x in pts[v]) for v in verts]
            if len(vpts) == 8 and oracles.simplicial(vpts):
                break
        den = rng.choice((1, 1, 2, 3))
        positions = [tuple(_exact_entry(x, den) for x in q) for q in vpts]
        simplicial = True
    elif variant == "float-simplicial":
        raw = np.array([_unit_vector(rng) for _ in range(14)])
        verts, edges = _skeleton_edges(raw)
        positions = [tuple(float(x) for x in raw[v]) for v in verts]
        simplicial = True
    elif variant == "cube":
        positions = [(x, y, z) for z in (0, 1) for y in (0, 1) for x in (0, 1)]
        edges = [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 7), (6, 7), (0, 4), (1, 5), (2, 6), (3, 7)]
    elif variant == "icosahedron":
        phi = (1 + 5 ** 0.5) / 2
        positions = []
        for a, b in product((-1.0, 1.0), (-phi, phi)):
            positions += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
        edges = [(i, j) for i, j in combinations(range(12), 2)
                 if abs(sum((x - y) ** 2 for x, y in zip(positions[i], positions[j])) - 4.0) < 1e-9]
        simplicial = True
    else:  # prism over a random lattice triangle: square side faces
        while True:
            tri = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)]
            (x0, y0), (x1, y1), (x2, y2) = tri
            if (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) != 0:
                break
        h = rng.randint(1, 9)
        positions = [(x, y, 0) for x, y in tri] + [(x, y, h) for x, y in tri]
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
    numeric = [tuple(_as_number(x) for x in q) for q in positions]
    rank, exact = oracles.redraw_rank(numeric, edges)
    dimension = 3 * len(positions) - rank
    path = w.json("skel", {"dim": 3, "vertices": [list(q) for q in positions], "edges": [list(e) for e in edges]})
    expect = {"dimension": dimension, "tight": dimension == 4, "constraint_rank": rank,
              "arithmetic": "exact" if exact else "approximate", "simplicial": simplicial}
    return {"kind": f"tightness-{'exact' if exact else 'float'}", "argv": ["tightness", path],
            "curve": _curve("geometry", max(4, len(positions))), "expect": expect}


def _unit_vector(rng) -> list[float]:
    v = [rng.gauss(0, 1) for _ in range(3)]
    norm = sum(x * x for x in v) ** 0.5
    return [x / norm for x in v]


def _exact_entry(x: int, den: int):
    if den == 1:
        return x
    return f"{x}/{den}"


def _as_number(x):
    return Fraction(x) if isinstance(x, str) else x


def _detect_query(rng, w: _Writer, d: int) -> dict:
    while True:
        verts = _unimodular_simplex(rng, d)
        p = rng.choice((2, 3))
        k = rng.choice((2, 3, 4)) if p == 2 else rng.choice((2, 3))
        scale = p ** k
        cap = rng.choice((1, 2))
        shift = [rng.randint(-4, 4) for _ in range(d)]

        def jitter():
            return [rng.randint(-cap, cap) for _ in range(d)]

        pts = [tuple(scale * v + s + e for v, s, e in zip(vx, shift, jitter())) for vx in verts]
        for _ in range(rng.randint(0, 2)):
            vx = rng.choice(verts)
            pts.append(tuple(scale * v + s + e for v, s, e in zip(vx, shift, jitter())))
        if len(set(pts)) != len(pts):
            continue
        rng.shuffle(pts)
        best, scales = oracles.detect_scales(verts, pts, cap, 2 * scale + 2 * cap + 2)
        if best is not None and scales == {scale}:
            break
    terms = {tuple(vx): rng.randint(1, p - 1) for vx in verts}
    path = w.json("poly", _poly_json(p, terms))
    argv = ["detect", path, "--tuple", _inline([list(q) for q in pts]), "--K", str(cap)]
    return {"kind": "detect", "argv": argv, "curve": _curve("geometry", max(4, len(pts))),
            "expect": {"scale": scale, "K": best}, "poly": poly_key(p, terms)}


def _geometry_query(rng, w: _Writer, slot) -> dict:
    kind = slot[0]
    if kind == "bounds3":
        # the hull's vertex count sets the cost, so each slot fixes it
        _, n, v = slot
        side = 3 if n <= 14 else 4
        while True:
            pts = _distinct_points(rng, n, lambda: tuple(rng.randint(0, side) for _ in range(3)))
            if oracles.affine_rank(pts) == 3 and oracles.hull_vertex_count(pts) == v:
                return _bounds_query(rng, w, pts)
    if kind == "planar":
        while True:
            a = [rng.randint(-2, 2) for _ in range(3)]
            b = [rng.randint(-2, 2) for _ in range(3)]
            if oracles.affine_rank([(0, 0, 0), tuple(a), tuple(b)]) == 2:
                break
        pts = _distinct_points(rng, 12, lambda: tuple(
            s * x + t * y for x, y, s, t in zip(a, b, [rng.randint(0, 5)] * 3, [rng.randint(0, 5)] * 3)))
        return _bounds_query(rng, w, pts, p=3)
    if kind == "linear":
        a = [rng.randint(-3, 3) for _ in range(3)]
        a[rng.randrange(3)] = rng.choice((1, 2))
        pts = _distinct_points(rng, 6, lambda: (lambda s: tuple(s * x for x in a))(rng.randint(-6, 6)))
        return _bounds_query(rng, w, pts, p=3)
    if kind == "bounds4":
        while True:
            pts = _distinct_points(rng, 11, lambda: tuple(rng.randint(0, 3) for _ in range(4)))
            if oracles.affine_rank(pts) == 4 and oracles.hull_vertex_count(pts) == 11:
                return _bounds_query(rng, w, pts, p=5)
    if kind == "tightness":
        return _tightness_query(rng, w, slot[1])
    return _detect_query(rng, w, slot[1])


# ("bounds3", support points, hull vertices); a list alternates between units
GEOMETRY_UNIT = [
    ("bounds3", 10, 8),
    ("bounds3", 11, 9),
    ("bounds3", 12, 9),
    ("bounds3", 14, 10),
    ("bounds3", 16, 11),
    ("bounds3", 19, 12),
    ("bounds3", 22, 13),
    ("bounds3", 28, 14),
    ("bounds3", 36, 15),
    [("planar",), ("linear",)],
    ("bounds4",),
    ("tightness", "exact-simplicial"),
    [("tightness", "float-simplicial"), ("tightness", "prism"),
     ("tightness", "cube"), ("tightness", "icosahedron")],
    [("detect", 2), ("detect", 3)],
]


def _geometry(rng, w: _Writer, units: int):
    cold = _bounds_query(rng, w, sorted(_unimodular_simplex(rng, 3)))
    return _units(rng, w, GEOMETRY_UNIT, units, _geometry_query), cold


# -- entry point ---------------------------------------------------------------------


def _units(rng, w: _Writer, unit, count: int, make) -> list[dict]:
    queries = []
    for u in range(count):
        slots = [s[u % len(s)] if isinstance(s, list) else s for s in unit]
        block, polys = [], set()
        for slot in slots:
            while True:  # a polynomial appears at most once per unit
                q = make(rng, w, slot)
                if q.get("poly") is None or q["poly"] not in polys:
                    break
            polys.add(q.get("poly"))
            block.append(q)
        rng.shuffle(block)
        for q in block:
            q["unit"] = u
        queries += block
    return queries


BUILDERS = {"shapes": _shapes, "measures": _measures, "geometry": _geometry}


def build(name: str, seed: int, workdir: str, seconds: float) -> tuple[list[dict], dict]:
    """Write the inputs of workload ``name`` for ``seed`` and return the queries."""
    rng = random.Random(f"{name}:{seed}")
    units = max(MIN_UNITS, math.ceil(seconds * UNITS_PER_SECOND[name]))
    return BUILDERS[name](rng, _Writer(workdir), units)
