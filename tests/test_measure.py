import itertools
import json
import random
import sys
import types
from fractions import Fraction
from pathlib import Path
from unittest import mock

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
    measure,
    mixing_experiment,
    monomial,
    solution_space,
)
from polymix.cli import main
from polymix.errors import InternalInconsistencyError
from polymix.measure import (
    box_projected_dimension,
    brute_force_counts,
    merge_events,
)
from polymix.quotient import window_residues

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
                assert exact.value == box.value

    def test_monomial_rejected(self):
        f = monomial(2, 2, (1, 0))
        with pytest.raises(Exception):
            cylinder_measure(f, cell(0))

    @pytest.mark.parametrize("method", ["exact", "box"])
    def test_non_integer_window_refused(self, ledrappier, method):
        with pytest.raises(ValueError, match="non-integer"):  # refused by the cylinder itself
            cylinder_measure(ledrappier, CylinderSpec(((0.5, 0), (1, 0)), (0, 1)), method=method)

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

    def test_shift_of_wrong_dimension_refused(self, ledrappier):
        # merging would drop the third axis and answer as for (0, 0) and (1, 0)
        ev = [((0, 0, 1), cell(0)), ((1, 0, 0), cell(0))]
        with pytest.raises(ValueError, match="wrong dimension"):
            joint_measure(ledrappier, ev)

    def test_merge_refuses_a_shift_of_another_dimension(self):
        # adding the 3-D shifts to 2-D points would drop their third entry
        # and merge (0, 0) and (1, 0)
        with pytest.raises(ValueError, match="wrong dimension"):
            merge_events([((0, 0, 1), cell(0)), ((1, 0, 0), cell(0))])

    def test_cylinder_of_another_dimension_refused(self, ledrappier):
        # a 2-D shift would cut the 3-D window to (0, 0) and (1, 0) and answer 1/4
        cyl = CylinderSpec(((0, 0, 5), (1, 0, 0)), (1, 1))
        with pytest.raises(ValueError, match="wrong dimension"):
            joint_measure(ledrappier, [((0, 0), cyl)])


class TestCylinderSpec:
    @pytest.mark.parametrize("value", ["3", 0.9, True, None])
    def test_value_that_is_not_an_int_refused(self, value):
        # not read as int("3") = 3 or int(0.9) = 0, and a bool is not an int
        with pytest.raises(ValueError, match="is not an integer"):
            CylinderSpec.from_pairs([((0, 0), 1), ((1, 0), value)])

    def test_points_of_unequal_length_refused(self):
        with pytest.raises(ValueError, match=r"window point \(1, 0, 0\) has wrong dimension"):
            CylinderSpec(((0, 0), (1, 0, 0)), (0, 0))

    def test_replace_checks_as_the_constructor_does(self):
        with pytest.raises(ValueError, match="non-integer"):
            cell(0)._replace(window=((0.5, 0),))
        assert cell(0)._replace(values=(1,)) == cell(1)


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

    @pytest.mark.parametrize("k_range", [range(0), range(1, 3)])
    def test_one_cylinder_per_shape_point(self, ledrappier, k_range):
        with pytest.raises(ValueError, match="one cylinder per shape point"):
            mixing_experiment(ledrappier, [(0, 0), (1, 0)], [cell(0)], k_range)

    @pytest.mark.parametrize("k_range", [range(0), range(1, 3)])
    def test_shape_of_wrong_dimension_refused(self, ledrappier, k_range):
        with pytest.raises(ValueError, match="wrong dimension"):
            mixing_experiment(ledrappier, [(0, 0, 0), (1, 0, 1)], [cell(0)] * 2, k_range)

    def test_product_measures_each_distinct_cylinder_once(self, ledrappier, monkeypatch):
        calls = []
        real = measure._exact_measure
        monkeypatch.setattr(measure, "_exact_measure",
                            lambda f, cyl: calls.append(cyl) or real(f, cyl))
        pair = CylinderSpec.from_pairs([((0, 0), 1), ((1, 0), 0)])
        shape = [(0, 0), (3, 0), (0, 3), (3, 3)]
        rows = mixing_experiment(ledrappier, shape, [cell(0), pair, cell(0), pair], [])
        assert rows == [] and calls == [cell(0), pair]
        rows = mixing_experiment(ledrappier, shape, [cell(0), pair, cell(0), pair], [2, 5])
        assert len(calls) == 2 + 2 + 2  # two single measures, one joint per k
        for row in rows:
            assert row.product == Fraction(1, 2) ** 2 * Fraction(1, 4) ** 2

    def test_k_zero_refused_for_two_or_more_points(self, ledrappier):
        # every point dilates to the origin, so a row would compare one
        # cylinder with itself; a single point has nothing to merge
        for k_range in ([0], range(-1, 2), iter([2, 0])):
            with pytest.raises(ValueError, match="^k = 0 dilates every shape point"):
                mixing_experiment(ledrappier, [(0, 0), (1, 0)], [cell(0)] * 2, k_range)
        rows = mixing_experiment(ledrappier, [(1, 0)], [cell(0)], range(0, 2))
        assert [(row.k, row.gap) for row in rows] == [(0, 0), (1, 0)]


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
        from polymix import make_poly
        from polymix.mixing import relation_value

        ones = [make_poly(2, 2, [((0, 0), 1)])] * 3
        for k in range(1, 9):
            tup = [(0, 0), (2 ** k, 0), (0, 2 ** k)]
            joint = joint_measure(ledrappier, [(n, cell(0)) for n in tup]).value
            assert relation_value(ones, tup, ledrappier).is_zero
            assert joint == Fraction(1, 4)

        # a non-dilation tuple where the relation fails is independent
        assert not relation_value(ones, [(0, 0), (3, 0), (0, 3)], ledrappier).is_zero
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
                moved = merge_events([(m, cyl)])
                assert cylinder_measure(f, moved).value == base

    def test_box_reports_p_exponent_and_method(self, ledrappier):
        # the one box eliminated is the window's own, so it adds no field
        res = cylinder_measure(ledrappier, cell(0), method="box")
        assert res._fields == ("p", "exponent", "method")
        assert res == (2, 1, "box")

    def test_box_path_confirms_non_mixing_values(self, ledrappier):
        # same windows as the dilation experiment, at box-affordable sizes
        for k in (1, 2, 3):
            ev = [((0, 0), cell(0)), ((2 ** k, 0), cell(0)), ((0, 2 ** k), cell(0))]
            exact = joint_measure(ledrappier, ev, method="exact")
            box = joint_measure(ledrappier, ev, method="box")
            assert exact.value == box.value == Fraction(1, 4)

    def test_experiment_marks_unavailable_rows(self, ledrappier):
        # the box path at dilations 2^7 and 2^8 of the triangle
        rows = mixing_experiment(
            ledrappier, [(0, 0), (1, 0), (0, 1)], [cell(0)] * 3, [2 ** 7, 2 ** 8], method="box"
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


def _reference_exponent(f, window, values):
    """Exponent from the per-monomial residue matrix, ranked densely.

    The projected dimension is the rank of the residue rows, and the
    values are consistent exactly when they lie in the column span.
    """
    matrix = np.array(_per_monomial_matrix(f, window), dtype=np.int64)
    consistent = gfp.in_row_space(matrix.T, np.array(values, dtype=np.int64), f.p)
    return gfp.rank(matrix, f.p) if consistent else None


class TestWindowResidues:
    """The exact path's exponent and consistency against dense ranks."""

    def _moduli(self, all_fixtures):
        rng = random.Random(45)
        return list(all_fixtures) + [generic_poly(rng, p) for p in (5, 7) for _ in range(2)]

    @staticmethod
    def _check(f, window, rng):
        for values in ([0] * len(window), [rng.randrange(f.p) for _ in window]):
            cyl = CylinderSpec.from_pairs(zip(window, values))
            assert cylinder_measure(f, cyl).exponent == _reference_exponent(f, window, values)

    def test_rectangles_match_per_monomial_rows(self, all_fixtures):
        rng = random.Random(46)
        for f in self._moduli(all_fixtures):
            for _ in range(4):
                x0, y0 = rng.randint(-5, 5), rng.randint(-5, 5)
                w, h = rng.randint(1, 6), rng.randint(1, 6)
                window = [(x, y) for x in range(x0, x0 + w) for y in range(y0, y0 + h)]
                rng.shuffle(window)
                self._check(f, window, rng)

    def test_scattered_windows_match_per_monomial_rows(self, all_fixtures):
        rng = random.Random(47)
        for f in self._moduli(all_fixtures):
            for _ in range(6):
                window = list({(rng.randint(-8, 8), rng.randint(-8, 8))
                               for _ in range(rng.randint(1, 12))})
                self._check(f, window, rng)

    def test_square_f3_exact_window(self, square_f3):
        window = [(x, y) for x in range(20) for y in range(20)]
        self._check(square_f3, window, random.Random(49))


def _residue_exponent(f, window, values):
    """Exponent from the rank of the window monomials' residues, the values beside them.

    The residue path of every window: a row per point, its residue with
    the value under a key above every monomial, inserted into one echelon.
    """
    shift = [min(w[i] for w in window) for i in range(f.dim)]
    residues, top = window_residues([tuple(a - b for a, b in zip(w, shift)) for w in window], f)
    echelon = {}
    for terms, v in zip(residues, values):
        row = dict(terms)
        if v % f.p:
            row[top] = v % f.p
        gfp.insert_row(echelon, row, f.p)
    return None if top in echelon else len(echelon)


def _box_window(rng, d, sides=None):
    """The cells of a box of random corner and sides, in lexicographic order."""
    side = {1: 7, 2: 5, 3: 3}[d]
    corner = [rng.randint(-4, 2) for _ in range(d)]
    sides = sides or [rng.randint(1, side) for _ in range(d)]
    return list(itertools.product(*(range(c, c + n) for c, n in zip(corner, sides))))


def _consistent_values(rng, f, window):
    """The window values of a random solution on the window's own box."""
    box = [(window[0][i], window[-1][i]) for i in range(f.dim)]
    basis = solution_space(f, box).basis
    return [int(v) for v in np.array([rng.randrange(f.p) for _ in basis]) @ basis % f.p] \
        if len(basis) else [0] * len(window)


class TestBoxWindows:
    """A window that fills its box: |W| minus the translates of f inside it."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    def test_matches_the_residue_rank(self, p, d):
        rng = random.Random(1000 * p + d)
        verdicts = set()
        for _ in range(6):
            f = _random_modulus(rng, p, d)
            span = [b - a for a, b in zip(f.min_exponents(), f.max_exponents())]
            # as long as f's span on its widest axis, so no translate fits (T = 0)
            narrow = [rng.randint(1, 3) for _ in span]
            narrow[span.index(max(span))] = max(span)
            for window in (_box_window(rng, d), _box_window(rng, d, narrow)):
                for values in ([0] * len(window), [rng.randrange(-p, 2 * p) for _ in window],
                               _consistent_values(rng, f, window)):
                    cyl = CylinderSpec.from_pairs(zip(window, values))
                    exponent = cylinder_measure(f, cyl).exponent
                    assert exponent == _residue_exponent(f, window, values)
                    verdicts.add(None if exponent is None else len(window) - exponent)
        # zero measures, windows no translate fits, and windows some do
        assert None in verdicts and 0 in verdicts and len(verdicts) > 2

    def test_matches_brute_force(self, all_fixtures):
        rng = random.Random(51)
        moduli = list(all_fixtures) + [_random_modulus(rng, p, d) for p in (2, 3) for d in (1, 2)]
        for f in moduli:
            for _ in range(6):
                window = _box_window(rng, f.dim, [rng.randint(1, 3) for _ in range(f.dim)])
                if f.p ** len(window) > 1 << 12:
                    continue
                box = [(window[0][i], window[-1][i]) for i in range(f.dim)]
                for values in ([rng.randrange(f.p) for _ in window],
                               _consistent_values(rng, f, window)):
                    cyl = CylinderSpec.from_pairs(zip(window, values))
                    assert cylinder_measure(f, cyl).exponent == \
                        brute_force_measure(f, cyl, box).exponent

    def test_box_windows_take_no_residues(self, square_f3, monkeypatch):
        spy = mock.Mock(wraps=measure.window_residues)
        monkeypatch.setattr(measure, "window_residues", spy)
        rect = [(x, y) for x in range(-2, 4) for y in range(-1, 4)]
        for window in (rect, rect[:1], [(x, 0) for x in range(9)]):
            cylinder_measure(square_f3, CylinderSpec.from_pairs((w, 1) for w in window))
        assert spy.call_count == 0
        assert getattr(square_f3, "_modulus", None) is None  # no modulus prepared
        thinned = CylinderSpec.from_pairs((w, 1) for w in rect[1:])
        cylinder_measure(square_f3, thinned)
        assert spy.call_count == 1

    def test_a_large_box_window_charges_no_budget(self, capsys, monkeypatch, tmp_path):
        # 32 x 32 cells, 30 x 30 translates of a support of span 2 x 2
        monkeypatch.setenv("POLYMIX_BUDGET", "1")
        spy = mock.Mock(wraps=measure.window_residues)
        monkeypatch.setattr(measure, "window_residues", spy)
        path = tmp_path / "cyl.json"
        path.write_text(json.dumps({"window": [[x, y] for x in range(32) for y in range(32)],
                                    "values": [0] * 1024}))
        code = main(["measure", str(FIXTURES / "generic_f7.json"), "--cylinder", str(path)])
        assert code == 0 and spy.call_count == 0
        assert json.loads(capsys.readouterr().out)["value"] == {"num": 1, "den": 7 ** 124}


def _mutation_corpus():
    """(f, cylinder, exponent) cases, the exponent from the dense reference.

    Each modulus gets a scattered window and a rectangle large enough to
    hold translates of S(f), with zero and with random values.
    """
    rng = random.Random(50)
    cases = []
    for p in (2, 3, 5, 7):
        for _ in range(3):
            f = generic_poly(rng, p, nterms=rng.randint(3, 5), span=2)
            x0, y0 = rng.randint(-2, 2), rng.randint(-2, 2)
            w, h = rng.randint(3, 6), rng.randint(3, 6)
            rectangle = [(x, y) for x in range(x0, x0 + w) for y in range(y0, y0 + h)]
            scattered = list({(rng.randint(-3, 3), rng.randint(-3, 3))
                              for _ in range(rng.randint(6, 20))})
            for window in (scattered, rectangle):
                for values in ([0] * len(window), [rng.randrange(p) for _ in window]):
                    cyl = CylinderSpec.from_pairs(zip(window, values))
                    cases.append((f, cyl, _reference_exponent(f, window, values)))
    return cases


class TestOneEchelon:
    CORPUS = _mutation_corpus()

    def test_corpus_has_both_verdicts(self):
        exponents = [exponent for _, _, exponent in self.CORPUS]
        assert None in exponents and any(exponents)
        for f, cyl, exponent in self.CORPUS:
            for method in ("exact", "box"):
                assert cylinder_measure(f, cyl, method).exponent == exponent

    @pytest.mark.parametrize(
        "module, old, new",
        [
            (gfp, "key = heapq.heappop(heap)\n", "key = max(heap)\n        heap.remove(key)\n"),
            (gfp, "heapq.heappush(heap, k)", "pass"),
            (measure, "(c in window, c)", "(c not in window, c)"),
        ],
        ids=["lead_is_greatest_key", "subtraction_key_not_pushed", "window_keys_first"],
    )
    def test_mutant_is_caught(self, monkeypatch, module, old, new):
        source = Path(module.__file__).read_text()
        assert source.count(old) == 1
        mutant = types.ModuleType(module.__name__ + "_mutant")
        mutant.__package__ = "polymix"
        monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
        exec(compile(source.replace(old, new), module.__file__, "exec"), mutant.__dict__)
        if module is gfp:
            monkeypatch.setattr(measure, "gfp", mutant)
            mutant = measure
        caught = {"exact": 0, "box": 0}
        for f, cyl, exponent in self.CORPUS:
            for method in caught:
                try:
                    caught[method] += mutant.cylinder_measure(f, cyl, method).exponent != exponent
                except (InternalInconsistencyError, KeyError):  # a failed check or a crash
                    caught[method] += 1
        assert caught["exact"] + caught["box"]


def per_margin_box_measure(f, cyl, initial_margin=None):
    """The box relaxation solved densely at growing margins (test oracle).

    Solves each box from scratch, restricts the kernel basis to the
    window, ranks it, and tests the values for membership in its row
    space.  The margin grows from max(1, span of f) until the rank holds
    twice, or until the ``cells`` budget refuses the next box.
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
                    exponent, _, _ = per_margin_box_measure(f, cyl)
                    assert box.exponent == exponent == cylinder_measure(f, cyl).exponent

    @pytest.mark.parametrize("limit, margin, stabilized", [
        (15, None, None), (16, 1, False), (35, 1, False),
        (36, 2, False), (63, 2, False), (64, 3, True),
    ])
    def test_budget_stops_at_a_later_margin(self, ledrappier, monkeypatch, limit, margin,
                                            stabilized):
        # the per-margin chain's boxes of margins 1, 2 and 3 have 16, 36 and
        # 64 cells, so the limit stops it at `margin` (None: before its
        # first box); the box method needs only the window's own 4 cells
        cyl = CylinderSpec.from_pairs(
            [((0, 0), 1), ((1, 0), 0), ((0, 1), 1), ((1, 1), 1)]
        )
        exact = cylinder_measure(ledrappier, cyl).exponent
        monkeypatch.setenv("POLYMIX_BUDGET", str(limit))
        assert cylinder_measure(ledrappier, cyl, method="box") == (2, exact, "box")
        if margin is None:
            with pytest.raises(BudgetExceededError, match="^cells budget: 16 "):
                per_margin_box_measure(ledrappier, cyl)
        else:
            assert per_margin_box_measure(ledrappier, cyl) == (exact, margin, stabilized)

    def test_budget_stops_at_the_first_margin(self, ledrappier, monkeypatch, tmp_path, capsys):
        # the chain's first box has 25 cells and the window's own box 9: a
        # limit between them stops the chain, while the box method answers
        # with the exact path's value, in the library and on the command line
        window = [(x, y) for x in range(3) for y in range(3)]
        cyl = CylinderSpec.from_pairs((w, 0) for w in window)
        exact = cylinder_measure(ledrappier, cyl)
        assert exact.value == Fraction(1, 32)  # 9 cells, 4 translates of f
        path = tmp_path / "cyl.json"
        path.write_text(f'{{"window": {[list(w) for w in window]}, "values": {[0] * 9}}}')
        argv = ["measure", str(FIXTURES / "ledrappier.json"), "--cylinder", str(path),
                "--method", "box"]
        monkeypatch.setenv("POLYMIX_BUDGET", "24")
        with pytest.raises(BudgetExceededError, match="^cells budget: 25 "):
            per_margin_box_measure(ledrappier, cyl)
        assert cylinder_measure(ledrappier, cyl, method="box").value == exact.value
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {
            "method": "box", "value": {"num": 1, "den": 32}}
        monkeypatch.setenv("POLYMIX_BUDGET", "8")
        with pytest.raises(BudgetExceededError, match="^cells budget: 9 "):
            cylinder_measure(ledrappier, cyl, method="box")
        assert main(argv) == 3
        assert capsys.readouterr().out == ""

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    def test_every_margin_projects_alike(self, p, d):
        # the annihilator is <f> ∩ F^W, so the window's bounding box and
        # every wider box give the exact path's dimension and verdicts
        rng = random.Random(1000 * p + d)
        for _ in range(4):
            f = _random_modulus(rng, p, d)
            for window in _random_windows(rng, d):
                trials = [[0] * len(window)] + [[rng.randrange(p) for _ in window]
                                                for _ in range(3)]
                exact = [cylinder_measure(f, CylinderSpec.from_pairs(zip(window, values)))
                         for values in trials]
                expected = (exact[0].exponent, tuple(m.exponent is not None for m in exact))
                for margin in range(4):
                    box = [(lo - margin, hi + margin) for lo, hi in measure._window_box(window)]
                    dim, annihilator = box_projected_dimension(f, window, box)
                    assert (dim, tuple(not (annihilator @ np.array(values) % p).any()
                                       for values in trials)) == expected

    def test_bad_windows_rejected(self, ledrappier):
        with pytest.raises(ValueError, match="outside the box"):
            box_projected_dimension(ledrappier, [(3, 0)], [(0, 2), (0, 2)])
        with pytest.raises(ValueError, match="repeated points"):
            box_projected_dimension(ledrappier, [(1, 0), (1, 0)], [(0, 2), (0, 2)])


class TestLargePrimes:
    """Measures stay exact near and past the int64 bound (p - 1)^2 < 2^63."""

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
    def test_over_the_bound_answers(self, method, tmp_path, capsys):
        # both paths eliminate Python integers, so no int64 limit applies
        p = 4294967311
        poly = tmp_path / "poly.json"
        poly.write_text(
            f'{{"p": {p}, "d": 2, "terms": [{{"e": [0, 0], "c": 1}}, '
            f'{{"e": [1, 0], "c": {p - 1}}}, {{"e": [0, 1], "c": {p - 2}}}]}}'
        )
        for values, value in (([3, 1, 1], {"num": 1, "den": p ** 2}),
                              ([3, 1, 2], {"num": 0, "den": 1})):
            cyl = tmp_path / "cyl.json"
            cyl.write_text(f'{{"window": [[0, 0], [1, 0], [0, 1]], "values": {values}}}')
            code = main(["measure", str(poly), "--cylinder", str(cyl), "--method", method])
            captured = capsys.readouterr()
            assert code == 0
            assert json.loads(captured.out)["value"] == value

    def test_measure_and_experiment_agree_over_the_bound(self, tmp_path, capsys):
        p = 3_037_000_507
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"p": p, "d": 2, "terms": [
            {"e": e, "c": c} for e, c in (([0, 0], 1), ([1, 0], 2), ([0, 1], 3), ([1, 1], 5))]}))
        cyl = tmp_path / "row.json"
        cyl.write_text(json.dumps({"window": [[0, 0], [1, 0], [2, 0], [3, 0]],
                                   "values": [1, 2, 3, 4]}))
        answers = {}
        for method in ("exact", "box"):
            for argv in (["measure"],
                         ["experiment", "--shape", "[[0,0],[5,0]]", "--k-range", "1:3"]):
                code = main([*argv, str(poly), "--cylinder", str(cyl), "--method", method])
                assert code == 0
                answers[method, argv[0]] = json.loads(capsys.readouterr().out)
        assert answers["exact", "measure"]["value"] == {"num": 1, "den": p ** 4}
        assert answers["exact", "measure"]["value"] == answers["box", "measure"]["value"]
        assert answers["exact", "experiment"] == answers["box", "experiment"]
        assert [row["joint"] for row in answers["exact", "experiment"]["rows"]] == [
            {"num": 1, "den": p ** 8}] * 3
