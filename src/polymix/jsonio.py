"""Published JSON schemas and canonical serialization.

Schemas:
  polynomial   {"p": int, "d": int, "terms": [{"e": [int,...], "c": int}, ...]}
  polytope     {"vertices": [[int,...],...], "edges": [[i,j],...], "affine_dim": k}
  skeleton     {"dim": d, "vertices": [[...],...], "edges": [[i,j],...]}
               (vertex entries: ints, floats, or exact rationals "a/b")
  cylinder     {"window": [[int,...],...], "values": [int,...]}
  certificate  {"shape": [[...]], "coeffs": [...], "verified_k": [...],
                "frobenius_family": bool}
  fractions    {"num": int, "den": int}

Serialization is canonical: sorted keys, fixed separators, so repeated
runs on the same input are byte-identical.
"""

from __future__ import annotations

import json
import math
import reprlib
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import ParseError
from .laurent import LaurentPoly, from_json_dict, is_json_int, to_json_dict
from .measure import CylinderSpec, MeasureResult
from .mixing import MixingBounds, ShapeCertificate
from .polytope import LatticePolytope
from .redraw import RedrawSpace, Skeleton, make_skeleton
from .seqgeom import RedrawMatch


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))``.

    Written directly, since ``json`` indents in pure Python, and exact for
    integers of any size: ``json.dumps`` refuses one past the interpreter's
    limit on the digits of ``str(int)``.  Dictionary keys must be strings.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, newline: str, out: list[str]) -> None:
    # the type tests run in the order of json.encoder, so bools print as
    # true/false and int and float subclasses as their base values
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        try:
            out.append(int.__repr__(obj))
        except ValueError:  # more digits than str(int) allows; Decimal has no such limit
            out.append(str(Decimal(obj)))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            out.append(float.__repr__(obj))
        else:
            out.append("NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in obj:
            out.append(lead)
            _write(item, inner, out)
            lead = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(lead + encode_basestring_ascii(key) + ": ")
            _write(value, inner, out)
            lead = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integers
        # past the digit limit of int(str)
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def load_poly(path: str) -> LaurentPoly:
    data = _load_json(path)
    try:
        return from_json_dict(data)
    except ValueError as exc:
        raise ParseError(f"bad polynomial file {path}: {exc}") from exc


def _rational_entry(x):
    if isinstance(x, bool):
        raise ParseError(f"vertex entry {x} is not a number")
    if isinstance(x, (int, float)):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational entry {reprlib.repr(x)}") from exc
    raise ParseError(f"bad vertex entry {reprlib.repr(x)}")


def load_skeleton(path: str) -> Skeleton:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError("skeleton JSON must be an object")
    try:
        dim = data["dim"]
        vertices = data["vertices"]
        edges = data["edges"]
    except KeyError as exc:
        raise ParseError(f"skeleton JSON missing key {exc}") from exc
    if not is_json_int(dim):
        raise ParseError(f"skeleton dim {reprlib.repr(dim)} is not an integer")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(map(is_json_int, e)) for e in edges
    ):
        raise ParseError("skeleton edges must be pairs of integer vertex indices")
    try:
        positions = [tuple(_rational_entry(x) for x in v) for v in vertices]
        return make_skeleton(dim, positions, edges)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad skeleton file {path}: {exc}") from exc


def parse_cylinder(data: dict, dim: int) -> CylinderSpec:
    if not isinstance(data, dict) or "window" not in data or "values" not in data:
        raise ParseError("cylinder JSON needs 'window' and 'values'")
    window = data["window"]
    values = data["values"]
    if not isinstance(window, list) or not isinstance(values, list):
        raise ParseError("cylinder 'window' and 'values' must be lists")
    if len(window) != len(values):
        raise ParseError("cylinder window and values differ in length")
    try:
        pairs = []
        for w, v in zip(window, values):
            if not isinstance(w, list) or not all(map(is_json_int, w)) or not is_json_int(v):
                raise ParseError(
                    f"window point {reprlib.repr(w)} and value {reprlib.repr(v)} must be integers")
            if len(w) != dim:
                raise ParseError(f"window point {reprlib.repr(tuple(w))} does not have dimension {dim}")
            pairs.append((w, v))
        return CylinderSpec.from_pairs(pairs)
    except ValueError as exc:
        raise ParseError(f"bad cylinder JSON: {exc}") from exc


def load_cylinder(path: str, dim: int) -> CylinderSpec:
    return parse_cylinder(_load_json(path), dim)


def fraction_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def polytope_json(poly: LatticePolytope) -> dict:
    return {
        "vertices": [list(v) for v in poly.vertices],
        "edges": [list(e) for e in poly.edges],
        "affine_dim": poly.affine_dim,
    }


def redraw_json(space: RedrawSpace) -> dict:
    out = {
        "dimension": space.dimension,
        "tight": space.tight,
        "arithmetic": space.arithmetic,
        "constraint_rank": space.constraint_rank,
    }
    if space.tolerance is not None:
        out["tolerance"] = space.tolerance
    return out


def bounds_json(bounds: MixingBounds) -> dict:
    return {
        "vertex_count": bounds.vertex_count,
        "support_size": bounds.support_size,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "polytope_tight": bounds.polytope_tight,
        "redraw_dimension": bounds.redraw_dimension,
        "conclusion": bounds.conclusion,
    }


def certificate_json(cert: ShapeCertificate) -> dict:
    coeffs = []
    for c in cert.coefficients:
        if isinstance(c, int):
            coeffs.append(c)
        else:  # polynomial coefficient from a degree-bounded search
            coeffs.append({"terms": to_json_dict(c)["terms"]})
    return {
        "shape": [list(n) for n in cert.shape],
        "coeffs": coeffs,
        "verified_k": list(cert.verified_k),
        "frobenius_family": cert.frobenius_family,
    }


def measure_json(result: MeasureResult) -> dict:
    return {
        "value": fraction_json(result.value),
        "box_margin_used": result.box_margin_used,
        "stabilized": result.stabilized,
        "method": result.method,
    }


def match_json(match: RedrawMatch | None) -> dict:
    if match is None:
        return {"match": None}
    out = {
        "match": {
            "pairing": [
                {"edge": list(edge), "pair": list(pair)} for edge, pair in match.pairing
            ],
            "perturbations": [list(d) for d in match.perturbations],
            "K": match.K,
            "homothety": None,
        }
    }
    if match.homothety is not None:
        scale, translation = match.homothety
        out["match"]["homothety"] = {
            "scale": fraction_json(scale),
            "translation": [fraction_json(Fraction(t)) for t in translation],
        }
    return out
