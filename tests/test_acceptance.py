"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are exact (zero tolerance) except the stated 1e-9
relative tolerance of the floating-point tightness path and the five
wall-clock limits.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product as iproduct

from polymix import (
    CylinderSpec,
    cylinder_measure,
    detect_redrawing,
    frobenius_certificate,
    hull,
    joint_measure,
    make_poly,
    reduce,
    redraw_space,
    skeleton_from_polytope,
)
from polymix.cli import main
from polymix.jsonio import load_poly
from polymix.measure import box_projected_dimension, brute_force_counts, merge_events
from polymix.redraw import constraint_rows

from conftest import (
    FIXTURES,
    cube_skeleton,
    icosahedron_skeleton,
    octahedron_skeleton,
    random_poly,
    square_skeleton,
    tetrahedron_skeleton,
    triangle_skeleton,
)

LEDRAPPIER = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)])
QUAD = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((2, 0), 1), ((0, 1), 1)])
SQUARE_F3 = make_poly(3, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 2)])


def report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_ledrappier_pipeline(capsys):
    start = time.perf_counter()
    code = main(["analyze", str(FIXTURES / "ledrappier.json")])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rep = json.loads(out)
    b = rep["bounds"]
    ok = (
        code == 0
        and b["vertex_count"] == 3
        and b["support_size"] == 3
        and (b["lower"], b["upper"]) == (2, 2)
        and b["polytope_tight"] is True
        and b["conclusion"] == "M=S=2"
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, f"analyze pipeline v=3 |S|=3 [2,2] tight M=S=2 in {elapsed:.3f}s", ok)


def test_criterion_2_frobenius_certificates():
    start = time.perf_counter()
    ok = True
    for f in (LEDRAPPIER, QUAD, SQUARE_F3):
        cert = frobenius_certificate(f, 12)
        ok = ok and cert.verified_k == tuple(range(13)) and cert.frobenius_family
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(2, f"certificates verified for k<=12 on 3 fixtures in {elapsed:.2f}s", ok)


def test_criterion_3_tightness_catalog():
    checks = [
        ("triangle", triangle_skeleton(), 3, True),
        ("square", square_skeleton(), 4, False),
        ("tetrahedron", tetrahedron_skeleton(), 4, True),
        ("octahedron", octahedron_skeleton(), 4, True),
        ("cube", cube_skeleton(), 6, False),
    ]
    ok = True
    for name, skel, dim, tight in checks:
        space = redraw_space(skel)
        ok = ok and space.arithmetic == "exact"
        ok = ok and space.dimension == dim and space.tight == tight
    ico = redraw_space(icosahedron_skeleton())
    ok = ok and ico.arithmetic == "approximate" and ico.tight and ico.dimension == 4
    report(3, "tightness catalog matches (triangle/square/tet/oct/cube/icosahedron)", ok)


def test_criterion_4_non_mixing_witness():
    cell = CylinderSpec.from_pairs([((0, 0), 0)])
    ok = True
    for k in range(1, 9):
        shifts = [(0, 0), (2 ** k, 0), (0, 2 ** k)]
        joint = joint_measure(LEDRAPPIER, [(s, cell) for s in shifts]).value
        product = cylinder_measure(LEDRAPPIER, cell).value ** 3
        ok = ok and joint == Fraction(1, 4)
        ok = ok and product == Fraction(1, 8)
        ok = ok and joint - product == Fraction(1, 8)
    report(4, "joint=1/4 vs product=1/8 (gap exactly 1/8) for k=1..8", ok)


def test_criterion_5_oracle_equivalence():
    rng = random.Random(2024)
    checked = 0
    ok = True
    for f in (LEDRAPPIER, QUAD, SQUARE_F3):
        box = [(0, 3), (0, 3)] if f.p == 2 else [(0, 2), (0, 3)]
        cells = [
            (x, y)
            for x in range(box[0][0], box[0][1] + 1)
            for y in range(box[1][0], box[1][1] + 1)
        ]
        for _ in range(7):
            window = rng.sample(cells, rng.randint(1, 3))
            dim_rank, _ = box_projected_dimension(f, [tuple(w) for w in window], box)
            cyl = CylinderSpec.from_pairs((w, 0) for w in window)
            matching, total = brute_force_counts(f, cyl, box)
            dim_counts = 0
            while f.p ** dim_counts * matching < total:
                dim_counts += 1
            ok = ok and f.p ** dim_counts * matching == total
            ok = ok and dim_rank == dim_counts
            checked += 1
    ok = ok and checked >= 20
    report(5, f"rank vs brute-force dimensions agree on {checked} random cylinders", ok)


def test_criterion_6_quotient_property_suite():
    rng = random.Random(2025)
    failures = 0
    for f in (LEDRAPPIER, QUAD, SQUARE_F3):
        for _ in range(200):
            q = random_poly(rng, f.p, 2, max_terms=3, lo=0, hi=2)
            h = random_poly(rng, f.p, 2, max_terms=4, lo=0, hi=3)
            if reduce(q * f + h, f) != reduce(h, f):
                failures += 1
        for _ in range(200):
            g = random_poly(rng, f.p, 2, max_terms=4, lo=-3, hi=3)
            if rng.random() < 0.3:
                g = g * f
            m = (rng.randint(-3, 3), rng.randint(-3, 3))
            if reduce(g.shift(m), f).is_zero != reduce(g, f).is_zero:
                failures += 1
    report(6, "600 normal-form and 600 shift-invariance trials, zero failures",
           failures == 0)


def test_criterion_7_redraw_space_floor():
    rng = random.Random(2026)
    done = 0
    ok = True
    for d in (2, 3):
        while done < (10 if d == 2 else 20):
            pts = {tuple(rng.randint(0, 5) for _ in range(d))
                   for _ in range(rng.randint(d + 1, d + 5))}
            poly = hull(pts)
            if poly.affine_dim != d:
                continue
            skel = skeleton_from_polytope(poly)
            space = redraw_space(skel)
            ok = ok and space.dimension >= d + 1
            rows = constraint_rows(skel)
            n = len(skel.positions)
            family = []
            for axis in range(d):
                vec = [0] * (n * d)
                for v in range(n):
                    vec[v * d + axis] = 1
                family.append(vec)
            family.append([x for p in skel.positions for x in p])
            for vec in family:
                ok = ok and all(
                    sum(a * b for a, b in zip(row, vec)) == 0 for row in rows
                )
            done += 1
    report(7, "dimension >= d+1 and homothety family annihilated on 20 polytopes", ok)


def test_criterion_8_detector():
    ok = True
    for k in range(0, 11):
        scale = 2 ** k
        exact = detect_redrawing(LEDRAPPIER, [(0, 0), (scale, 0), (0, scale)], 0)
        ok = ok and exact is not None and exact.K == 0
        ok = ok and exact.homothety is not None and exact.homothety[0] == scale
        if scale > 1:
            bumped = detect_redrawing(
                LEDRAPPIER, [(0, 0), (scale + 1, 0), (0, scale)], 1
            )
            ok = ok and bumped is not None and bumped.K == 1
            ok = ok and bumped.homothety is not None and bumped.homothety[0] == scale
    report(8, "exact homothety at K=0 for 2^k scaling, K=1 recovery of lambda=2^k", ok)


def test_criterion_9_normalization_and_invariance():
    rng = random.Random(2027)
    ok = True
    windows = [
        [(0, 0)],
        [(0, 0), (1, 0)],
        [(0, 0), (1, 0), (0, 1)],
        [(0, 0), (1, 0), (0, 1), (2, 2)],
    ]
    for f in (LEDRAPPIER, QUAD, SQUARE_F3):
        for window in windows:
            total = Fraction(0)
            for values in iproduct(range(f.p), repeat=len(window)):
                cyl = CylinderSpec.from_pairs(zip(window, values))
                total += cylinder_measure(f, cyl).value
            ok = ok and total == 1
        cyl = CylinderSpec.from_pairs([((0, 0), 1), ((1, 1), 0)])
        base = cylinder_measure(f, cyl).value
        for _ in range(50):
            m = (rng.randint(-8, 8), rng.randint(-8, 8))
            ok = ok and cylinder_measure(f, merge_events([(m, cyl)])).value == base
    report(9, "window measures sum to 1 and survive 150 random translations", ok)


def test_criterion_10_generic_f7_certificate(capsys):
    start = time.perf_counter()
    code = main(["analyze", str(FIXTURES / "generic_f7.json"), "--max-k", "12"])
    elapsed = time.perf_counter() - start
    rep = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and rep["certificate"]["verified_k"] == list(range(13))
        and rep["certificate"]["frobenius_family"] is True
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(10, f"analyze --max-k 12 on a generic 5-term F_7 polynomial in {elapsed:.3f}s", ok)


def test_criterion_11_polynomial_coefficient_search(capsys):
    start = time.perf_counter()
    code = main(["search", str(FIXTURES / "square_f3.json"), "--r", "2", "--radius", "1",
                 "--coeff-degree", "1"])
    elapsed = time.perf_counter() - start
    rep = json.loads(capsys.readouterr().out)
    ok = code == 0 and isinstance(rep["candidates"], list) and elapsed < 1.5
    with capsys.disabled():
        report(11, f"search --r 2 --radius 1 --coeff-degree 1 on the F_3 square in {elapsed:.3f}s",
               ok)


def test_criterion_12_generic_f101_certificate():
    # the dilated support relation at p = 101, proved by one division
    f = load_poly(str(FIXTURES / "generic_f101.json"))
    start = time.perf_counter()
    cert = frobenius_certificate(f, 12)
    elapsed = time.perf_counter() - start
    ok = cert.verified_k == tuple(range(13)) and cert.frobenius_family and elapsed < 0.5
    report(12, f"certificate for k<=12 on a generic 5-term F_101 polynomial in {elapsed:.3f}s", ok)
