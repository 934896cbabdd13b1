import random
from fractions import Fraction

import numpy as np
import pytest

from polymix import (
    BudgetExceededError,
    CylinderSpec,
    brute_force_measure,
    cylinder_measure,
    gfp,
    joint_measure,
    make_poly,
    mixing_experiment,
    monomial,
    solution_space,
)
from polymix.cli import main
from polymix.measure import (
    _window_residue_matrix,
    box_projected_dimension,
    brute_force_counts,
    merge_events,
)

from conftest import FIXTURES, divide_from_scratch, generic_poly, random_poly


def cell(value=0):
    return CylinderSpec.from_pairs([((0, 0), value)])


class TestSolutionSpace:
    def test_one_constraint_on_four_cells(self, ledrappier):
        assert solution_space(ledrappier, [(0, 1), (0, 1)]).dimension == 3

    def test_unconstrained_single_cell(self, ledrappier):
        assert solution_space(ledrappier, [(0, 0), (0, 0)]).dimension == 1

    def test_chain_of_equalities(self):
        f = make_poly(2, 1, [((0,), 1), ((1,), 1)])
        assert solution_space(f, [(0, 3)]).dimension == 1

    def test_budget_rejected(self, ledrappier):
        with pytest.raises(BudgetExceededError):
            solution_space(ledrappier, [(0, 200), (0, 200)])

    def test_budget_override(self, ledrappier, monkeypatch):
        box = [(0, 3), (0, 3)]  # 16 cells, fine by default
        assert solution_space(ledrappier, box).dimension > 0
        monkeypatch.setenv("POLYMIX_BUDGET", "10")
        with pytest.raises(BudgetExceededError):
            solution_space(ledrappier, box)

    def test_basis_vectors_satisfy_constraints(self, square_f3):
        space = solution_space(square_f3, [(0, 2), (0, 2)])
        index = {c: i for i, c in enumerate(space.cells)}
        for vec in space.basis:
            for mx in range(0, 2):
                for my in range(0, 2):
                    total = sum(
                        c * vec[index[(mx + n[0], my + n[1])]]
                        for n, c in square_f3.terms.items()
                    )
                    assert total % 3 == 0


class TestCylinderMeasure:
    def test_single_cell(self, ledrappier):
        assert cylinder_measure(ledrappier, cell(0)).value == Fraction(1, 2)

    def test_triangle_window_consistent(self, ledrappier):
        cyl = CylinderSpec.from_pairs([((0, 0), 0), ((1, 0), 0), ((0, 1), 0)])
        assert cylinder_measure(ledrappier, cyl).value == Fraction(1, 4)

    def test_triangle_window_inconsistent(self, ledrappier):
        cyl = CylinderSpec.from_pairs([((0, 0), 1), ((1, 0), 0), ((0, 1), 0)])
        assert cylinder_measure(ledrappier, cyl).value == 0

    def test_box_path_agrees(self, all_fixtures):
        rng = random.Random(41)
        for f in all_fixtures:
            for _ in range(8):
                window = {
                    (rng.randint(-2, 2), rng.randint(-2, 2))
                    for _ in range(rng.randint(1, 3))
                }
                cyl = CylinderSpec.from_pairs(
                    (w, rng.randint(0, f.p - 1)) for w in window
                )
                exact = cylinder_measure(f, cyl, method="exact")
                box = cylinder_measure(f, cyl, method="box")
                assert box.stabilized
                assert exact.value == box.value

    def test_monomial_rejected(self):
        f = monomial(2, 2, (1, 0))
        with pytest.raises(Exception):
            cylinder_measure(f, cell(0))

    def test_values_are_p_powers(self, all_fixtures):
        rng = random.Random(42)
        for f in all_fixtures:
            for _ in range(10):
                cyl = CylinderSpec.from_pairs(
                    [((rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(0, f.p - 1))]
                )
                res = cylinder_measure(f, cyl)
                v = res.value
                assert v == 0 or (
                    v.numerator == 1 and f.p ** round(_logp(v, f.p)) * v == 1
                )


def _logp(v, p):
    m = 0
    while v < 1:
        v *= p
        m += 1
    return m


class TestJointMeasure:
    def test_three_fold_failure(self, ledrappier):
        ev = [((0, 0), cell(0)), ((2, 0), cell(0)), ((0, 2), cell(0))]
        assert joint_measure(ledrappier, ev).value == Fraction(1, 4)

    def test_two_fold_independence(self, ledrappier):
        ev = [((0, 0), cell(0)), ((5, 0), cell(0))]
        assert joint_measure(ledrappier, ev).value == Fraction(1, 4)

    def test_conflicting_merge_is_zero(self, ledrappier):
        ev = [((0, 0), cell(0)), ((0, 0), cell(1))]
        assert merge_events(ev) is None
        assert joint_measure(ledrappier, ev).value == 0

    def test_agreeing_merge(self, ledrappier):
        ev = [((0, 0), cell(0)), ((0, 0), cell(0))]
        assert joint_measure(ledrappier, ev).value == Fraction(1, 2)


class TestMixingExperiment:
    def test_non_mixing_gap(self, ledrappier):
        rows = mixing_experiment(
            ledrappier, [(0, 0), (1, 0), (0, 1)], [cell(0)] * 3, [2, 4, 8]
        )
        for row in rows:
            assert row.available
            assert row.joint == Fraction(1, 4)
            assert row.product == Fraction(1, 8)
            assert row.gap == Fraction(1, 8)

    def test_pair_shape_mixes(self, ledrappier):
        rows = mixing_experiment(
            ledrappier, [(0, 0), (1, 0)], [cell(0)] * 2, range(2, 7)
        )
        assert all(row.gap == 0 for row in rows)

    def test_single_set_trivial(self, ledrappier):
        rows = mixing_experiment(ledrappier, [(0, 0)], [cell(0)], [1, 2])
        assert all(row.gap == 0 for row in rows)

    def test_rule_form(self, ledrappier):
        rule = lambda k: [(0, 0), (2 ** k, 0), (0, 2 ** k)]
        rows = mixing_experiment(ledrappier, rule, [cell(0)] * 3, [1, 3])
        assert all(row.gap == Fraction(1, 8) for row in rows)


class TestBruteForce:
    def test_triangle_counts(self, ledrappier):
        matching, total = brute_force_counts(ledrappier, cell(0), [(0, 1), (0, 1)])
        assert (matching, total) == (4, 8)
        res = brute_force_measure(ledrappier, cell(0), [(0, 1), (0, 1)])
        assert res.value == Fraction(1, 2)

    def test_1d_constant_configurations(self):
        f = make_poly(2, 1, [((0,), 1), ((1,), 1)])
        cyl = CylinderSpec.from_pairs([((0,), 1)])
        matching, total = brute_force_counts(f, cyl, [(0, 2)])
        assert (matching, total) == (1, 2)

    def test_violating_assignment_is_zero(self, ledrappier):
        cyl = CylinderSpec.from_pairs([((0, 0), 1), ((1, 0), 0), ((0, 1), 0)])
        res = brute_force_measure(ledrappier, cyl, [(0, 1), (0, 1)])
        assert res.value == 0

    def test_budget_enforced(self, ledrappier):
        # 2^25 configurations of the 25-cell box
        with pytest.raises(BudgetExceededError,
                           match=r"^enumeration budget: 33554432 .*, limit 4194304$"):
            brute_force_counts(ledrappier, cell(0), [(0, 4), (0, 4)])

    def test_oracle_agrees_with_rank_dimensions(self, all_fixtures):
        # box-kernel projected dimension vs dimension recovered from counts
        rng = random.Random(43)
        for f in all_fixtures:
            box = [(0, 3), (0, 3)] if f.p == 2 else [(0, 2), (0, 3)]
            cells = [(x, y) for x in range(box[0][0], box[0][1] + 1)
                     for y in range(box[1][0], box[1][1] + 1)]
            for _ in range(7):
                window = rng.sample(cells, rng.randint(1, 3))
                cyl = CylinderSpec.from_pairs((w, 0) for w in window)
                dim_rank, _ = box_projected_dimension(f, cyl.window, box)
                matching, total = brute_force_counts(f, cyl, box)
                dim_counts = 0
                while f.p ** dim_counts * matching < total:
                    dim_counts += 1
                assert f.p ** dim_counts * matching == total
                assert dim_rank == dim_counts


class TestCrossModuleCoherence:
    def test_measure_gap_matches_relation_rows(self, ledrappier):
        # the same dilations that keep the joint measure at 1/4 are the
        # ones whose three-term relation vanishes in the quotient
        from polymix import SequenceRelation, check_relation, make_poly

        one = make_poly(2, 2, [((0, 0), 1)])
        rel = SequenceRelation(
            (one, one, one), lambda j: [(0, 0), (2 ** j, 0), (0, 2 ** j)]
        )
        rows = dict(check_relation(rel, ledrappier, range(1, 9)))
        for k in range(1, 9):
            ev = [((0, 0), cell(0)), ((2 ** k, 0), cell(0)), ((0, 2 ** k), cell(0))]
            joint = joint_measure(ledrappier, ev).value
            assert rows[k] is True
            assert joint == Fraction(1, 4)

        # a non-dilation index where the relation fails is independent
        rel3 = SequenceRelation((one, one, one), [[(0, 0), (3, 0), (0, 3)]])
        assert check_relation(rel3, ledrappier, [0]) == [(0, False)]
        ev3 = [((0, 0), cell(0)), ((3, 0), cell(0)), ((0, 3), cell(0))]
        assert joint_measure(ledrappier, ev3).value == Fraction(1, 8)


class TestHaarProperties:
    def test_window_sums_to_one(self, all_fixtures):
        from itertools import product as iproduct

        for f in all_fixtures:
            for window in [
                [(0, 0)],
                [(0, 0), (1, 0)],
                [(0, 0), (1, 0), (0, 1)],
                [(0, 0), (1, 1), (2, 0), (0, 2)],
            ]:
                total = Fraction(0)
                for values in iproduct(range(f.p), repeat=len(window)):
                    cyl = CylinderSpec.from_pairs(zip(window, values))
                    total += cylinder_measure(f, cyl).value
                assert total == 1

    def test_translation_invariance(self, all_fixtures):
        rng = random.Random(44)
        for f in all_fixtures:
            cyl = CylinderSpec.from_pairs([((0, 0), 1), ((1, 0), 0)])
            base = cylinder_measure(f, cyl).value
            for _ in range(20):
                m = (rng.randint(-6, 6), rng.randint(-6, 6))
                moved = cyl.translated(m)
                assert cylinder_measure(f, moved).value == base

    def test_box_margins_reported(self, ledrappier):
        res = cylinder_measure(ledrappier, cell(0), method="box")
        assert res.method == "box"
        assert res.stabilized
        assert res.box_margin_used >= 1

    def test_box_path_confirms_non_mixing_values(self, ledrappier):
        # same windows as the dilation experiment, at box-affordable sizes
        for k in (1, 2, 3):
            ev = [((0, 0), cell(0)), ((2 ** k, 0), cell(0)), ((0, 2 ** k), cell(0))]
            exact = joint_measure(ledrappier, ev, method="exact")
            box = joint_measure(ledrappier, ev, method="box")
            assert exact.value == box.value == Fraction(1, 4)

    def test_experiment_marks_unavailable_rows(self, ledrappier):
        rule = lambda k: [(0, 0), (2 ** k, 0), (0, 2 ** k)]
        rows = mixing_experiment(
            ledrappier, rule, [cell(0)] * 3, [7, 8], method="box"
        )
        assert all(not row.available for row in rows)


def _per_monomial_matrix(f, window):
    """Window residue matrix with every row divided from scratch."""
    shift = tuple(min(w[i] for w in window) for i in range(f.dim))
    residues = [
        divide_from_scratch(monomial(f.p, f.dim, [a - b for a, b in zip(w, shift)]), f)
        for w in window
    ]
    monomials = sorted({e for r in residues for e in r.terms})
    rows = [[r.terms.get(e, 0) for e in monomials] or [0] for r in residues]
    return rows


class TestWindowResidues:
    def _moduli(self, all_fixtures):
        rng = random.Random(45)
        return list(all_fixtures) + [generic_poly(rng, p) for p in (5, 7) for _ in range(2)]

    def test_rectangles_match_per_monomial_rows(self, all_fixtures):
        rng = random.Random(46)
        for f in self._moduli(all_fixtures):
            for _ in range(4):
                x0, y0 = rng.randint(-5, 5), rng.randint(-5, 5)
                w, h = rng.randint(1, 6), rng.randint(1, 6)
                window = [(x, y) for x in range(x0, x0 + w) for y in range(y0, y0 + h)]
                rng.shuffle(window)
                matrix, n = _window_residue_matrix(f, window)
                assert n == len(window)
                assert matrix.tolist() == _per_monomial_matrix(f, window)

    def test_scattered_windows_match_per_monomial_rows(self, all_fixtures):
        rng = random.Random(47)
        for f in self._moduli(all_fixtures):
            for _ in range(6):
                window = list({(rng.randint(-8, 8), rng.randint(-8, 8))
                               for _ in range(rng.randint(1, 12))})
                matrix, _ = _window_residue_matrix(f, window)
                assert matrix.tolist() == _per_monomial_matrix(f, window)

    def test_square_f3_exact_window(self, square_f3):
        window = [(x, y) for x in range(20) for y in range(20)]
        matrix, _ = _window_residue_matrix(square_f3, window)
        assert matrix.tolist() == _per_monomial_matrix(square_f3, window)


def per_margin_box_measure(f, cyl, initial_margin=None):
    """The box path with a fresh elimination at every margin (test oracle).

    Solves the box from scratch, restricts the kernel basis to the
    window, ranks it, and tests the values for membership in its row
    space; same stopping rule and budget behaviour as the box path.
    Returns (exponent, margin used, stabilized).
    """
    smin, smax = f.min_exponents(), f.max_exponents()
    diameter = max(b - a for a, b in zip(smin, smax))
    m = max(1, diameter) if initial_margin is None else initial_margin
    wlo = [min(w[i] for w in cyl.window) for i in range(f.dim)]
    whi = [max(w[i] for w in cyl.window) for i in range(f.dim)]
    dims, restricted, stable = [], None, 0
    while True:
        try:
            space = solution_space(f, [(lo - m, hi + m) for lo, hi in zip(wlo, whi)])
        except BudgetExceededError:
            if not dims:
                raise
            m -= 1
            stabilized = False
            break
        index = {c: i for i, c in enumerate(space.cells)}
        restricted = space.basis[:, [index[w] for w in cyl.window]]
        dim = gfp.rank(restricted, f.p)
        if dims:
            assert dim <= dims[-1]
            stable = stable + 1 if dim == dims[-1] else 0
        dims.append(dim)
        if stable >= 2:
            stabilized = True
            break
        m += 1
    values = np.array([v % f.p for v in cyl.values], dtype=np.int64)
    exponent = dims[-1] if gfp.in_row_space(restricted, values, f.p) else None
    return exponent, m, stabilized


def _random_modulus(rng, p, d):
    while True:
        lo, hi = (0, 1) if d == 3 else (-1, 2)
        f = random_poly(rng, p, d, max_terms=4, lo=lo, hi=hi, nonzero=True)
        if not f.is_monomial:
            return f


def _random_windows(rng, d):
    """A rectangle and a scattered set, both allowed negative offsets."""
    side = 2 if d == 3 else 3
    corner = [rng.randint(-3, 2) for _ in range(d)]
    sides = [rng.randint(1, side) for _ in range(d)]
    rect = [tuple(c + o for c, o in zip(corner, offset))
            for offset in np.ndindex(*sides)]
    scattered = {tuple(rng.randint(-3, side - 1) for _ in range(d))
                 for _ in range(rng.randint(1, 5))}
    return [rect, sorted(scattered)]


class TestGrowingEchelon:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_per_margin_chain_and_exact(self, p, d):
        rng = random.Random(100 * p + d)
        for _ in range(4):
            f = _random_modulus(rng, p, d)
            for window in _random_windows(rng, d):
                for values in ([0] * len(window), [rng.randrange(p) for _ in window]):
                    cyl = CylinderSpec.from_pairs(zip(window, values))
                    box = cylinder_measure(f, cyl, method="box")
                    expected = per_margin_box_measure(f, cyl)
                    assert (box.exponent, box.box_margin_used, box.stabilized) == expected
                    assert box.stabilized
                    assert box.exponent == cylinder_measure(f, cyl).exponent

    def test_budget_stops_at_a_later_margin(self, ledrappier, monkeypatch):
        # margins 1 and 2 fit (16 and 36 cells), margin 3 (64 cells) does not
        cyl = CylinderSpec.from_pairs(
            [((0, 0), 1), ((1, 0), 0), ((0, 1), 1), ((1, 1), 1)]
        )
        monkeypatch.setenv("POLYMIX_BUDGET", "40")
        box = cylinder_measure(ledrappier, cyl, method="box")
        assert (box.box_margin_used, box.stabilized) == (2, False)
        assert (box.exponent, 2, False) == per_margin_box_measure(ledrappier, cyl)
        monkeypatch.delenv("POLYMIX_BUDGET")
        assert box.exponent == cylinder_measure(ledrappier, cyl).exponent

    def test_budget_stops_at_the_first_margin(self, ledrappier, monkeypatch, tmp_path, capsys):
        window = [(x, y) for x in range(3) for y in range(3)]
        cyl = CylinderSpec.from_pairs((w, 0) for w in window)
        monkeypatch.setenv("POLYMIX_BUDGET", "24")  # the first box has 25 cells
        with pytest.raises(BudgetExceededError):
            cylinder_measure(ledrappier, cyl, method="box")
        with pytest.raises(BudgetExceededError):
            per_margin_box_measure(ledrappier, cyl)
        path = tmp_path / "cyl.json"
        path.write_text(f'{{"window": {[list(w) for w in window]}, "values": {[0] * 9}}}')
        code = main(["measure", str(FIXTURES / "ledrappier.json"), "--cylinder", str(path),
                     "--method", "box"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""

    def test_annihilator_decides_consistency_like_brute_force(self, all_fixtures):
        from itertools import product as iproduct

        rng = random.Random(48)
        for f in all_fixtures:
            box = [(-1, 1), (0, 2)]
            cells = [(x, y) for x in range(-1, 2) for y in range(3)]
            for _ in range(4):
                window = sorted(rng.sample(cells, rng.randint(1, 3)))
                dim, annihilator = box_projected_dimension(f, window, box)
                assert annihilator.shape == (len(window) - dim, len(window))
                for values in iproduct(range(f.p), repeat=len(window)):
                    cyl = CylinderSpec.from_pairs(zip(window, values))
                    matching, _ = brute_force_counts(f, cyl, box)
                    consistent = not (annihilator @ np.array(values) % f.p).any()
                    assert consistent == (matching > 0)

    def test_bad_windows_rejected(self, ledrappier):
        with pytest.raises(ValueError, match="outside the box"):
            box_projected_dimension(ledrappier, [(3, 0)], [(0, 2), (0, 2)])
        with pytest.raises(ValueError, match="repeated points"):
            box_projected_dimension(ledrappier, [(1, 0), (1, 0)], [(0, 2), (0, 2)])


class TestLargePrimes:
    """F_p arithmetic is exact up to (p - 1)^2 < 2^63 and refused beyond it."""

    @staticmethod
    def _triangle(p):
        # 1 - u1 - 2 u2: x(m) = x(m + e1) + 2 x(m + e2)
        f = make_poly(p, 2, [((0, 0), 1), ((1, 0), p - 1), ((0, 1), p - 2)])
        a, b = p - 2, p - 1
        window = [(0, 0), (1, 0), (0, 1)]
        consistent = CylinderSpec.from_pairs(zip(window, [(a + 2 * b) % p, a, b]))
        inconsistent = CylinderSpec.from_pairs(zip(window, [(a + 2 * b + 1) % p, a, b]))
        return f, consistent, inconsistent

    @pytest.mark.parametrize("method", ["exact", "box"])
    def test_just_under_the_bound(self, method):
        p = 2147483647
        f, consistent, inconsistent = self._triangle(p)
        assert cylinder_measure(f, consistent, method=method).value == Fraction(1, p ** 2)
        assert cylinder_measure(f, inconsistent, method=method).value == 0

    def test_long_products_stay_exact(self):
        # window values near p: a sum of six products passes 2^63
        p = 2147483647
        f, _, _ = self._triangle(p)
        values = {(2, 0): p - 1, (2, 1): p - 3, (0, 1): p - 5, (1, 1): p - 7}
        values[(1, 0)] = (values[(2, 0)] + 2 * values[(1, 1)]) % p
        values[(0, 0)] = (values[(1, 0)] + 2 * values[(0, 1)]) % p
        consistent = CylinderSpec.from_pairs(values.items())
        values[(0, 0)] = (values[(0, 0)] + 1) % p
        inconsistent = CylinderSpec.from_pairs(values.items())
        for method in ("exact", "box"):
            assert cylinder_measure(f, consistent, method=method).value == Fraction(1, p ** 4)
            assert cylinder_measure(f, inconsistent, method=method).value == 0

    @pytest.mark.parametrize("method", ["exact", "box"])
    def test_over_the_bound_exits_2(self, method, tmp_path, capsys):
        p = 4294967311
        poly = tmp_path / "poly.json"
        poly.write_text(
            f'{{"p": {p}, "d": 2, "terms": [{{"e": [0, 0], "c": 1}}, '
            f'{{"e": [1, 0], "c": {p - 1}}}, {{"e": [0, 1], "c": {p - 2}}}]}}'
        )
        for values in ([3, 1, 1], [3, 1, 2]):
            cyl = tmp_path / "cyl.json"
            cyl.write_text(f'{{"window": [[0, 0], [1, 0], [0, 1]], "values": {values}}}')
            code = main(["measure", str(poly), "--cylinder", str(cyl), "--method", method])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "(p - 1)^2 < 2^63" in captured.err
