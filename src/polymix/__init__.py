"""Exact mixing analysis for algebraic Z^d-actions defined by a Laurent
polynomial over a prime field."""

# no package path uses the exact LP; it is imported with the package because
# perfbench/tracing.py wraps exactlp.in_convex_hull as it wraps every layer
from . import exactlp  # noqa: F401
from .errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    ParseError,
    PolymixError,
    TrivialQuotientError,
)
from .laurent import (
    FieldSpec,
    LaurentPoly,
    add,
    frobenius_power,
    make_poly,
    monomial,
    mul,
    one,
    poly_pow,
    support,
    zero,
)
from .measure import (
    CylinderSpec,
    MeasureResult,
    brute_force_measure,
    cylinder_measure,
    joint_measure,
    mixing_experiment,
    solution_space,
)
from .mixing import (
    MixingBounds,
    SequenceRelation,
    ShapeCertificate,
    check_relation,
    frobenius_certificate,
    frobenius_rule,
    mixing_bounds,
    search_relations,
)
from .polytope import LatticePolytope, hull, outward_normal
from .quotient import Residue, is_zero_mod, normalize, reduce
from .redraw import RedrawSpace, Skeleton, is_tight, make_skeleton, redraw_space, skeleton_from_polytope
from .seqgeom import (
    RedrawMatch,
    SnappedShape,
    UnimodularFrame,
    detect_redrawing,
    extend_basis,
    monomial_weight,
    snap_to_homothety,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CylinderSpec",
    "FieldSpec",
    "InternalInconsistencyError",
    "LatticePolytope",
    "LaurentPoly",
    "MeasureResult",
    "MixingBounds",
    "ParseError",
    "PolymixError",
    "RedrawMatch",
    "RedrawSpace",
    "Residue",
    "SequenceRelation",
    "ShapeCertificate",
    "Skeleton",
    "SnappedShape",
    "TrivialQuotientError",
    "UnimodularFrame",
    "add",
    "brute_force_measure",
    "check_relation",
    "cylinder_measure",
    "detect_redrawing",
    "extend_basis",
    "frobenius_certificate",
    "frobenius_power",
    "frobenius_rule",
    "hull",
    "is_tight",
    "is_zero_mod",
    "joint_measure",
    "make_poly",
    "make_skeleton",
    "mixing_bounds",
    "mixing_experiment",
    "monomial",
    "monomial_weight",
    "mul",
    "normalize",
    "one",
    "outward_normal",
    "poly_pow",
    "reduce",
    "redraw_space",
    "search_relations",
    "skeleton_from_polytope",
    "snap_to_homothety",
    "solution_space",
    "support",
    "zero",
]
