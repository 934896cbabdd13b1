"""The result and input records are named tuples: immutable values."""

import pytest

from polymix import (
    CylinderSpec,
    cylinder_measure,
    detect_redrawing,
    frobenius_certificate,
    make_skeleton,
    mixing_bounds,
    mixing_experiment,
    one,
    redraw_space,
    reduce,
    solution_space,
)


def records(f):
    """One instance of every record of the package, by name."""
    cyl = CylinderSpec.from_pairs([((0, 0), 0)])
    bounds, polytope = mixing_bounds(f)
    return {
        "CylinderSpec": cyl,
        "MeasureResult": cylinder_measure(f, cyl),
        "SolutionSpace": solution_space(f, [(0, 1), (0, 1)]),
        "ExperimentRow": mixing_experiment(f, [(0, 0), (1, 0)], [cyl, cyl], [1])[0],
        "MixingBounds": bounds,
        "LatticePolytope": polytope,
        "Facet": polytope.facets[0],
        "ShapeCertificate": frobenius_certificate(f, 1),
        "Residue": reduce(one(f.p, f.dim), f),
        "Skeleton": make_skeleton(2, [(0, 0), (1, 0)], [(0, 1)]),
        "RedrawSpace": redraw_space(make_skeleton(2, [(0, 0), (1, 0)], [(0, 1)])),
        "RedrawMatch": detect_redrawing(f, [(0, 0), (16, 0), (0, 16)], 0),
    }


NAMES = ["CylinderSpec", "MeasureResult", "SolutionSpace", "ExperimentRow", "MixingBounds",
         "LatticePolytope", "Facet", "ShapeCertificate", "Residue", "Skeleton", "RedrawSpace",
         "RedrawMatch"]


@pytest.mark.parametrize("name", NAMES)
def test_assigning_an_attribute_raises(ledrappier, name):
    record = records(ledrappier)[name]
    assert type(record).__name__ == name
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "added"


def test_a_record_is_a_tuple_of_its_fields(ledrappier):
    bounds, polytope = mixing_bounds(ledrappier)
    assert bounds == tuple(bounds) and bounds[0] == bounds.vertex_count == 3
    assert polytope.proj_cols is None and polytope == (*polytope[:6], None)
    assert bounds._asdict()["conclusion"] == bounds.conclusion
