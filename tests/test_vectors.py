"""One integer rule: every public entry that takes an integer vector refuses the same inputs.

``laurent.check_vectors`` decides them all: a vector is a tuple or a list
of the right length whose entries are ints, and a bool, a float, a string
or None is not one.  Each refusal is a ``ValueError``, never a
``TypeError`` and never a silent coercion.
"""

import pytest

from polymix import (
    CylinderSpec,
    LaurentPoly,
    detect_redrawing,
    hull,
    joint_measure,
    make_poly,
    make_skeleton,
    mixing_experiment,
    monomial,
    one,
    redraw_space,
    reduce,
)
from polymix import laurent
from polymix.jsonio import to_json_dict
from polymix.measure import box_projected_dimension, brute_force_measure, solution_space
from polymix.mixing import relation_value
from polymix.quotient import monomial_residue, window_residues

CELL = CylinderSpec.from_pairs([((0, 0), 0)])

# each takes a bad 2-D vector v and the Ledrappier polynomial f
ENTRIES = {
    "LaurentPoly": lambda v, f: LaurentPoly(2, 2, [((0, 0), 1), (v, 1)]),
    "make_poly": lambda v, f: make_poly(2, 2, [((0, 0), 1), (v, 1)]),
    "monomial": lambda v, f: monomial(2, 2, v),
    "LaurentPoly.shift": lambda v, f: f.shift(v),
    "CylinderSpec": lambda v, f: CylinderSpec(((0, 0), v), (0, 1)),
    "CylinderSpec.from_pairs": lambda v, f: CylinderSpec.from_pairs([((0, 0), 0), (v, 1)]),
    "make_skeleton.edges": lambda v, f: make_skeleton(2, [(0, 0), (1, 0), (0, 1)], [(0, 1), v]),
    "make_skeleton.positions": lambda v, f: make_skeleton(2, [(0, 0), (1, 0), v], [(0, 1)]),
    "hull": lambda v, f: hull([(0, 0), (1, 0), (0, 1), v]),
    "joint_measure.shifts": lambda v, f: joint_measure(f, [((0, 0), CELL), (v, CELL)]),
    "mixing_experiment.shape": lambda v, f: mixing_experiment(f, [(0, 0), v], [CELL] * 2, [1]),
    "detect_redrawing": lambda v, f: detect_redrawing(f, [(0, 0), (16, 0), v], 0),
    "relation_value": lambda v, f: relation_value([one(2, 2)] * 2, [(0, 0), v], f),
    "monomial_residue": lambda v, f: monomial_residue(v, f),
    "window_residues": lambda v, f: window_residues([(0, 0), v], f),
    "solution_space.box": lambda v, f: solution_space(f, [(0, 1), v]),
    "box_projected_dimension.box": lambda v, f: box_projected_dimension(f, [(0, 0)], [(0, 1), v]),
    "box_projected_dimension.window":
        lambda v, f: box_projected_dimension(f, [(0, 0), v], [(0, 1), (0, 1)]),
    "brute_force_measure.box": lambda v, f: brute_force_measure(f, CELL, [(0, 1), v]),
}

BAD = {
    "bool": (True, 0),
    "float": (1.5, 0),
    "string": ("1", 0),
    "none": (None, 0),
    "wrong_length": (1, 0, 0),
    "not_a_sequence": 5,
    "set": {0, 1},  # the right length, but not a tuple or a list
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in ENTRIES for bad in BAD
    # a skeleton position may be a float: the icosahedron's are
    if (entry, bad) != ("make_skeleton.positions", "float")
])
def test_every_entry_refuses_a_bad_vector(ledrappier, entry, bad):
    with pytest.raises(ValueError):
        ENTRIES[entry](BAD[bad], ledrappier)


class TestReproducers:
    def test_bool_exponent(self):
        # was accepted, and written to JSON as [true, 0]
        with pytest.raises(ValueError, match="non-integer"):
            to_json_dict(LaurentPoly(2, 2, [((True, 0), 1), ((0, 1), 1)]))

    def test_hull_of_floats(self):
        # was the triangle (0, 0), (1, 0), (0, 1): the floats were truncated
        with pytest.raises(ValueError, match=r"point \(0.7, 0\) has non-integer entries"):
            hull([(0.7, 0), (1, 0), (0, 1.9)])

    def test_shift_by_a_float(self):
        # made the exponents (0.5, 0) and (1.5, 0)
        g = LaurentPoly(2, 2, [((0, 0), 1), ((1, 0), 1)])
        with pytest.raises(ValueError, match="non-integer"):
            g.shift((0.5, 0))

    @pytest.mark.parametrize("build", [
        lambda f: LaurentPoly(2, 2, [(5, 1)]),
        lambda f: CylinderSpec((("a", "b"),), (1,)),
        lambda f: monomial_residue(("a", "b"), f),
        lambda f: detect_redrawing(f, ["ab", "cd", "ef"], 0),
    ], ids=["exponent_5", "cylinder_strings", "residue_strings", "detect_strings"])
    def test_was_a_type_error(self, ledrappier, build):
        with pytest.raises(ValueError):
            build(ledrappier)

    def test_bool_cylinder(self):
        with pytest.raises(ValueError, match=r"window point \(True, 0\)"):
            CylinderSpec.from_pairs([((True, 0), False)])

    def test_bool_edge(self):
        with pytest.raises(ValueError, match=r"edge \(False, True\) has non-integer entries"):
            make_skeleton(2, [(0, 0), (1, 0)], [(False, True)])

    def test_coefficients(self):
        # 1.5 was kept over F_2 and True read as 1
        with pytest.raises(ValueError, match="term coefficient 1.5 is not an integer"):
            make_poly(2, 2, [((0, 0), 1.5), ((1, 0), True)])
        with pytest.raises(ValueError, match="term coefficient True is not an integer"):
            make_poly(2, 2, [((0, 0), 1), ((1, 0), True)])

    def test_bool_dimension(self):
        # was a polynomial of dim True, and a skeleton of ambient dimension True
        with pytest.raises(ValueError, match="dimension True is not an integer"):
            LaurentPoly(2, True, [((0,), 1)])
        with pytest.raises(ValueError, match="ambient dimension True is not an integer"):
            make_skeleton(True, [(0,), (1,)], [(0, 1)])

    @pytest.mark.parametrize("call", [
        lambda f, box: solution_space(f, box),
        lambda f, box: box_projected_dimension(f, [(0, 0)], box),
        lambda f, box: brute_force_measure(f, CELL, box),
    ], ids=["solution_space", "box_projected_dimension", "brute_force_measure"])
    def test_float_box_bound(self, ledrappier, call):
        # solution_space(f, [(0, 1.9), (0, 1)]).box was ((0, 1), (0, 1))
        with pytest.raises(ValueError, match=r"box axis range \(0, 1.9\) has non-integer"):
            call(ledrappier, [(0, 1.9), (0, 1)])

    @pytest.mark.parametrize("window, message", [
        ([(True, 0), (0, 1)], r"\(True, 0\) has non-integer entries"),
        ([(0, 0), (0.0, 1)], r"\(0.0, 1\) has non-integer entries"),
        ([(0, 0, 0)], r"\(0, 0, 0\) has wrong dimension: expected 2"),
    ], ids=["bool", "float", "wrong_dimension"])
    def test_box_projected_dimension_window(self, ledrappier, window, message):
        # bool and float points were read as ints (dimension 2 for
        # [(True, 0), (0.0, 1)]), and a 3-entry point was "outside the box"
        with pytest.raises(ValueError, match="^window point " + message):
            box_projected_dimension(ledrappier, window, [(0, 2), (0, 2)])

    def test_bool_positions(self):
        # redraw_space ranked this skeleton as exact
        with pytest.raises(ValueError, match=r"position \(False, 0\)"):
            redraw_space(make_skeleton(2, [(False, 0), (1, 0), (0, True)],
                                       [(0, 1), (1, 2), (0, 2)]))


def test_records_keep_their_vectors_as_tuples():
    cyl = CylinderSpec([[1, 0], [0, 0]], [1, 0])
    assert cyl == (((0, 0), (1, 0)), (0, 1))  # sorted, each value with its point
    skeleton = make_skeleton(2, iter([[0, 0], [1, 0]]), iter([[0, 1]]))
    assert skeleton == (2, ((0, 0), (1, 0)), ((0, 1),))
    assert hash(cyl) == hash(CylinderSpec.from_pairs([((0, 0), 0), ((1, 0), 1)]))


def test_relation_value_decides_no_primality(ledrappier, monkeypatch):
    # the result shares f's prime, which the constructor would test again
    coefficients = [LaurentPoly(2, 2, [((0, 0), 1), ((1, 1), 1)]), one(2, 2)]
    expected = reduce(make_poly(2, 2, [((0, 0), 1), ((1, 1), 1), ((3, 1), 1)]), ledrappier).value
    calls = []
    is_prime = laurent._is_prime
    monkeypatch.setattr(laurent, "_is_prime", lambda p: calls.append(p) or is_prime(p))
    value = relation_value(coefficients, [(0, 0), (3, 1)], ledrappier)
    assert calls == []
    assert value == expected and not value.is_zero
