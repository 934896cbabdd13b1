"""Command-line interface.

    polymix analyze    POLY.json [--max-k K]
    polymix bounds     POLY.json
    polymix tightness  SKELETON.json [--tolerance T]
    polymix certify    POLY.json --max-k K
    polymix measure    POLY.json --cylinder CYL.json [--shifts JSON] [--method M]
    polymix experiment POLY.json --shape JSON --cylinder CYL.json --k-range LO:HI
    polymix detect     POLY.json --tuple JSON --K K
    polymix search     POLY.json --r R --radius RAD [--coeff-degree D]

All output is canonical JSON on stdout.  Exit codes: 0 success, 1 parse
error (malformed input file or inline JSON, an option value out of range
-- a negative --max-k, --K, --radius, --coeff-degree or --tolerance, a NaN
--tolerance, an --r below 2 -- or a POLYMIX_BUDGET that is not a positive
integer), 2 degenerate input
(zero/monomial polynomial or degenerate polytope), 3 budget exceeded,
4 internal error (a machine check failed).  The environment variable
POLYMIX_BUDGET overrides the cell/enumeration/search budgets.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    ParseError,
    TrivialQuotientError,
)
from .measure import joint_measure, mixing_experiment
from .mixing import (
    IRREDUCIBILITY_WARNING,
    frobenius_certificate,
    mixing_bounds,
    search_relations,
)
from .redraw import DEFAULT_TOLERANCE, redraw_space
from .seqgeom import detect_redrawing


def _parse_inline(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad inline JSON for {what}: {exc}") from exc


def _vector_list(data, dim: int, what: str) -> list[tuple[int, ...]]:
    if not isinstance(data, list) or not data:
        raise ParseError(f"{what} must be a non-empty list of vectors")
    out = []
    for v in data:
        if not isinstance(v, list) or len(v) != dim or not all(isinstance(x, int) for x in v):
            raise ParseError(f"{what} entry {v!r} is not an integer vector of length {dim}")
        out.append(tuple(v))
    return out


def _at_least(value, lo: int, flag: str):
    # written so that a NaN fails too
    if not value >= lo:
        raise ParseError(f"{flag} must be >= {lo}, got {value}")
    return value


def _cmd_analyze(args) -> dict:
    poly = jsonio.load_poly(args.poly)
    max_k = _at_least(args.max_k, 0, "--max-k")
    bounds, polytope = mixing_bounds(poly)
    certificate = frobenius_certificate(poly, max_k)
    warnings = [IRREDUCIBILITY_WARNING]
    if bounds.polytope_tight is None:
        warnings.append("tightness undetermined: affine dimension exceeds 3")
    return {
        "input": jsonio.poly_json(poly),
        "support": [list(n) for n in sorted(poly.terms)],
        "polytope": jsonio.polytope_json(polytope),
        "bounds": jsonio.bounds_json(bounds),
        "certificate": jsonio.certificate_json(certificate),
        "warnings": warnings,
    }


def _cmd_bounds(args) -> dict:
    poly = jsonio.load_poly(args.poly)
    bounds, polytope = mixing_bounds(poly)
    return {
        "input": jsonio.poly_json(poly),
        "polytope": jsonio.polytope_json(polytope),
        "bounds": jsonio.bounds_json(bounds),
    }


def _cmd_tightness(args) -> dict:
    skeleton = jsonio.load_skeleton(args.skeleton)
    tolerance = _at_least(args.tolerance, 0, "--tolerance")
    return jsonio.redraw_json(redraw_space(skeleton, tolerance=tolerance))


def _cmd_certify(args) -> dict:
    poly = jsonio.load_poly(args.poly)
    max_k = _at_least(args.max_k, 0, "--max-k")
    return jsonio.certificate_json(frobenius_certificate(poly, max_k))


def _cmd_measure(args) -> dict:
    poly = jsonio.load_poly(args.poly)
    cylinder = jsonio.load_cylinder(args.cylinder, poly.dim)
    if args.shifts is None:
        shifts = [(0,) * poly.dim]
    else:
        shifts = _vector_list(_parse_inline(args.shifts, "--shifts"), poly.dim, "--shifts")
    events = [(s, cylinder) for s in shifts]
    return jsonio.measure_json(joint_measure(poly, events, method=args.method))


def _parse_k_range(text: str) -> range:
    try:
        lo, hi = text.split(":")
        return range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise ParseError(f"--k-range must look like LO:HI, got {text!r}") from exc


def _cmd_experiment(args) -> dict:
    poly = jsonio.load_poly(args.poly)
    shape = _vector_list(_parse_inline(args.shape, "--shape"), poly.dim, "--shape")
    cylinder = jsonio.load_cylinder(args.cylinder, poly.dim)
    rows = mixing_experiment(
        poly,
        shape,
        [cylinder] * len(shape),
        _parse_k_range(args.k_range),
        method=args.method,
    )
    out_rows = []
    for row in rows:
        if not row.available:
            out_rows.append({"k": row.k, "available": False})
            continue
        out_rows.append(
            {
                "k": row.k,
                "available": True,
                "joint": jsonio.fraction_json(row.joint),
                "product": jsonio.fraction_json(row.product),
                "gap": jsonio.fraction_json(row.gap),
            }
        )
    return {"rows": out_rows}


def _cmd_detect(args) -> dict:
    poly = jsonio.load_poly(args.poly)
    points = _vector_list(_parse_inline(args.tuple, "--tuple"), poly.dim, "--tuple")
    match = detect_redrawing(poly, points, _at_least(args.K, 0, "--K"))
    return jsonio.match_json(match)


def _cmd_search(args) -> dict:
    poly = jsonio.load_poly(args.poly)
    certificates = search_relations(
        poly,
        _at_least(args.r, 2, "--r"),
        _at_least(args.radius, 0, "--radius"),
        _at_least(args.coeff_degree, 0, "--coeff-degree"),
    )
    return {"candidates": [jsonio.certificate_json(c) for c in certificates]}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polymix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline: support, hull, tightness, bounds, certificate")
    p.add_argument("poly")
    p.add_argument("--max-k", type=int, default=8)
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("bounds", help="mixing-order bounds only")
    p.add_argument("poly")
    p.set_defaults(run=_cmd_bounds)

    p = sub.add_parser("tightness", help="parallel-redrawing dimension of a skeleton")
    p.add_argument("skeleton")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(run=_cmd_tightness)

    p = sub.add_parser("certify", help="verify the dilated-support relation up to --max-k")
    p.add_argument("poly")
    p.add_argument("--max-k", type=int, default=8)
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("measure", help="exact measure of a (joint) cylinder event")
    p.add_argument("poly")
    p.add_argument("--cylinder", required=True)
    p.add_argument("--shifts", default=None)
    p.add_argument("--method", choices=["exact", "box"], default="exact")
    p.set_defaults(run=_cmd_measure)

    p = sub.add_parser("experiment", help="joint vs product measures along shape dilations")
    p.add_argument("poly")
    p.add_argument("--shape", required=True)
    p.add_argument("--cylinder", required=True)
    p.add_argument("--k-range", required=True)
    p.add_argument("--method", choices=["exact", "box"], default="exact")
    p.set_defaults(run=_cmd_experiment)

    p = sub.add_parser("detect", help="match a tuple against a redrawing of the polytope")
    p.add_argument("poly")
    p.add_argument("--tuple", required=True)
    p.add_argument("--K", type=int, default=0)
    p.set_defaults(run=_cmd_detect)

    p = sub.add_parser("search", help="bounded search for candidate non-mixing shapes")
    p.add_argument("poly")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--coeff-degree", type=int, default=0)
    p.set_defaults(run=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (TrivialQuotientError, ValueError) as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    print(jsonio.dumps(report))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
