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
    LaurentPoly,
    frobenius_power,
    make_poly,
    monomial,
    one,
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
    ShapeCertificate,
    frobenius_certificate,
    mixing_bounds,
    search_relations,
)
from .polytope import LatticePolytope, hull, outward_normal
from .quotient import Residue, normalize, reduce
from .redraw import RedrawSpace, Skeleton, make_skeleton, redraw_space, skeleton_from_polytope
from .seqgeom import RedrawMatch, detect_redrawing

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CylinderSpec",
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
    "ShapeCertificate",
    "Skeleton",
    "TrivialQuotientError",
    "brute_force_measure",
    "cylinder_measure",
    "detect_redrawing",
    "frobenius_certificate",
    "frobenius_power",
    "hull",
    "joint_measure",
    "make_poly",
    "make_skeleton",
    "mixing_bounds",
    "mixing_experiment",
    "monomial",
    "normalize",
    "one",
    "outward_normal",
    "reduce",
    "redraw_space",
    "search_relations",
    "skeleton_from_polytope",
    "solution_space",
]
