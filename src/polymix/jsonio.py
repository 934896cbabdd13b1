"""Published JSON schemas, the parsers that read them, and canonical serialization.

Schemas:
  polynomial   {"p": int, "d": int, "terms": [{"e": [int,...], "c": int}, ...]}
  polytope     {"vertices": [[int,...],...], "edges": [[i,j],...], "affine_dim": k}
  skeleton     {"dim": d, "vertices": [[...],...], "edges": [[i,j],...]}
               (vertex entries: ints, floats, or exact rationals "a/b")
  cylinder     {"window": [[int,...],...], "values": [int,...]}
  vectors      [[int,...],...], inline for --shape, --tuple and --shifts
  certificate  {"shape": [[...]], "coeffs": [...], "verified_k": [...],
                "frobenius_family": bool}
  fractions    {"num": int, "den": int}

The records check their own fields, and ``laurent.check_vectors`` every
integer vector (never ``true`` or ``false``), so this module checks only
what JSON adds and the polynomial's dimension; a refusal is a
``ParseError``.  Serialization is canonical: sorted keys, fixed
separators, so repeated runs on the same input are byte-identical.
"""

from __future__ import annotations

import json
import math
import reprlib
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import ParseError
from .laurent import LaurentPoly, check_vectors
from .measure import CylinderSpec, MeasureResult
from .mixing import ShapeCertificate
from .polytope import LatticePolytope
from .redraw import Skeleton, make_skeleton
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


def parse_vectors(text: str, dim: int, flag: str) -> list[tuple[int, ...]]:
    """The inline JSON of ``flag``: a non-empty list of integer vectors of length ``dim``."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad inline JSON for {flag}: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise ParseError(f"{flag} must be a non-empty list of vectors")
    _check_vectors(data, dim, f"{flag} entry")
    return [tuple(v) for v in data]


def _check_vectors(data: list, dim: int, what: str) -> None:
    """``laurent.check_vectors`` on JSON data: its refusal is a ``ParseError``."""
    try:
        check_vectors(data, dim, what)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def to_json_dict(g: LaurentPoly) -> dict:
    return {
        "p": g.p,
        "d": g.dim,
        "terms": [{"e": list(e), "c": g.terms[e]} for e in sorted(g.terms)],
    }


def from_json_dict(data) -> LaurentPoly:
    """The polynomial of a polynomial JSON object.

    A schema violation is a ``ParseError``; what the constructor refuses (a
    p that is not a prime, a d below 1, a coefficient that is not an int,
    an exponent that is not d ints) is its ``ValueError``.
    """
    if not isinstance(data, dict):
        raise ParseError("polynomial JSON must be an object")
    missing = {"p", "d", "terms"} - set(data)
    if missing:
        raise ParseError(f"polynomial JSON missing keys: {sorted(missing)}")
    p, d, terms = data["p"], data["d"], data["terms"]
    if type(p) is not int or type(d) is not int:
        raise ParseError("'p' and 'd' must be integers")
    if not isinstance(terms, list):
        raise ParseError("'terms' must be a list")
    pairs = []
    for t in terms:
        if not isinstance(t, dict) or "e" not in t or "c" not in t:
            raise ParseError(f"malformed term {reprlib.repr(t)}")
        pairs.append((t["e"], t["c"]))
    return LaurentPoly(p, d, pairs)


def load_poly(path: str) -> LaurentPoly:
    data = _load_json(path)
    try:
        return from_json_dict(data)
    except (ParseError, ValueError) as exc:
        raise ParseError(f"bad polynomial file {path}: {exc}") from exc


def _rational_entry(x):
    if not isinstance(x, str):  # the skeleton refuses an entry that is not a number
        return x
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational entry {reprlib.repr(x)}") from exc


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
    if type(dim) is not int:
        raise ParseError(f"skeleton dim {reprlib.repr(dim)} is not an integer")
    if not isinstance(vertices, list) or not all(isinstance(v, list) for v in vertices):
        raise ParseError("skeleton vertices must be a list of lists")
    if not isinstance(edges, list):
        raise ParseError("skeleton edges must be a list of vertex index pairs")
    _check_vectors(edges, 2, "skeleton edge")
    try:
        positions = [tuple(_rational_entry(x) for x in v) for v in vertices]
        return make_skeleton(dim, positions, edges)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad skeleton file {path}: {exc}") from exc


def load_cylinder(path: str, dim: int) -> CylinderSpec:
    data = _load_json(path)
    if not isinstance(data, dict) or "window" not in data or "values" not in data:
        raise ParseError("cylinder JSON needs 'window' and 'values'")
    window, values = data["window"], data["values"]
    if not isinstance(window, list) or not isinstance(values, list):
        raise ParseError("cylinder 'window' and 'values' must be lists")
    try:
        cylinder = CylinderSpec(window, values)
        check_vectors(cylinder.window[:1], dim, "window point")
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return cylinder


def fraction_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def polytope_json(poly: LatticePolytope) -> dict:
    return {
        "vertices": [list(v) for v in poly.vertices],
        "edges": [list(e) for e in poly.edges],
        "affine_dim": poly.affine_dim,
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
