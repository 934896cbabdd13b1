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
error (malformed input file or inline JSON, such as `true`, a float or a
string where an integer is expected, a NaN or infinite skeleton vertex
entry, bytes that are not UTF-8, an integer of more digits than Python
reads or nesting deeper than its recursion limit; an option value out of
range -- a negative --max-k, --K, --radius, --coeff-degree or --tolerance,
a NaN or infinite --tolerance, an --r below 2 -- or a POLYMIX_BUDGET that
is not a positive integer), 2 degenerate input
(zero/monomial polynomial, degenerate polytope, or a float skeleton whose
edge directions leave float range) or a usage error reported by argparse
(an unknown subcommand or flag, a missing required flag, or a flag value
of the wrong type, such as --max-k x), 3 budget exceeded
(the message names the budget, its use and its limit), 4 internal error
(a machine check failed), 141 stdout closed before the report was written
(128 + SIGPIPE, as a shell reports for ``yes | head``).  The environment
variable POLYMIX_BUDGET overrides every budget of ``budgets``: ``cells``
(box cells), ``enumeration`` (brute-force configurations), ``search``
(search candidates), ``division`` (the certificate's division box),
``detector`` (the detector's placements), ``hull`` (the visibility
tests of a convex hull, plus k for each facet normal it builds in
dimension k), ``redraw`` (the neighbour tests
of the triangle scan and the cells of the rank system of a skeleton's
redrawings, each checked on its own), ``experiment`` (the rows of
--k-range, checked before the first) and ``residue`` (the term pairs of
the quotient products and divisions behind one polynomial's monomial
residues, as they are formed).
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import budgets, jsonio
from .errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    ParseError,
    TrivialQuotientError,
)
from .laurent import is_json_int, to_json_dict
from .measure import joint_measure, mixing_experiment
from .mixing import (
    IRREDUCIBILITY_WARNING,
    frobenius_certificate,
    mixing_bounds,
    search_relations,
)
from .redraw import DEFAULT_TOLERANCE, redraw_space
from .seqgeom import detect_redrawing

if TYPE_CHECKING:
    import argparse


def _parse_inline(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad inline JSON for {what}: {exc}") from exc


def _vector_list(data, dim: int, what: str) -> list[tuple[int, ...]]:
    if not isinstance(data, list) or not data:
        raise ParseError(f"{what} must be a non-empty list of vectors")
    out = []
    for v in data:
        if not isinstance(v, list) or len(v) != dim or not all(map(is_json_int, v)):
            raise ParseError(f"{what} entry {reprlib.repr(v)} is not an integer vector of length {dim}")
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
    return {
        "input": to_json_dict(poly),
        "support": [list(n) for n in sorted(poly.terms)],
        "polytope": jsonio.polytope_json(polytope),
        "bounds": jsonio.bounds_json(bounds),
        "certificate": jsonio.certificate_json(certificate),
        "warnings": [IRREDUCIBILITY_WARNING],
    }


def _cmd_bounds(args) -> dict:
    poly = jsonio.load_poly(args.poly)
    bounds, polytope = mixing_bounds(poly)
    return {
        "input": to_json_dict(poly),
        "polytope": jsonio.polytope_json(polytope),
        "bounds": jsonio.bounds_json(bounds),
    }


def _cmd_tightness(args) -> dict:
    skeleton = jsonio.load_skeleton(args.skeleton)
    tolerance = _at_least(args.tolerance, 0, "--tolerance")
    if tolerance == math.inf:
        raise ParseError(f"--tolerance must be finite, got {tolerance}")
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
        lo, hi = map(int, text.split(":"))
    except ValueError as exc:
        raise ParseError(f"--k-range must look like LO:HI, got {reprlib.repr(text)}") from exc
    if hi < lo:
        raise ParseError(f"--k-range must have HI >= LO, got {reprlib.repr(text)}")
    budgets.check("experiment", hi - lo + 1)
    return range(lo, hi + 1)


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


_POLY = ("poly", {})
_MAX_K = ("--max-k", {"type": int, "default": 8})
_CYLINDER = ("--cylinder", {"required": True})
_METHOD = ("--method", {"choices": ["exact", "box"], "default": "exact"})


class _Command(NamedTuple):
    help: str
    arguments: list[tuple[str, dict]]  # (name or flag, add_argument keywords)
    run: Callable[[SimpleNamespace | argparse.Namespace], dict]


_COMMANDS = {
    "analyze": _Command("full pipeline: support, hull, tightness, bounds, certificate",
                        [_POLY, _MAX_K], _cmd_analyze),
    "bounds": _Command("mixing-order bounds only", [_POLY], _cmd_bounds),
    "tightness": _Command("parallel-redrawing dimension of a skeleton",
                          [("skeleton", {}),
                           ("--tolerance", {"type": float, "default": DEFAULT_TOLERANCE})],
                          _cmd_tightness),
    "certify": _Command("verify the dilated-support relation up to --max-k",
                        [_POLY, _MAX_K], _cmd_certify),
    "measure": _Command("exact measure of a (joint) cylinder event",
                        [_POLY, _CYLINDER, ("--shifts", {}), _METHOD], _cmd_measure),
    "experiment": _Command("joint vs product measures along shape dilations",
                           [_POLY, ("--shape", {"required": True}), _CYLINDER,
                            ("--k-range", {"required": True}), _METHOD],
                           _cmd_experiment),
    "detect": _Command("match a tuple against a redrawing of the polytope",
                       [_POLY, ("--tuple", {"required": True}),
                        ("--K", {"type": int, "default": 0})],
                       _cmd_detect),
    "search": _Command("bounded search for candidate non-mixing shapes",
                       [_POLY, ("--r", {"type": int, "required": True}),
                        ("--radius", {"type": int, "required": True}),
                        ("--coeff-degree", {"type": int, "default": 0})],
                       _cmd_search),
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # a plain argv never needs it, so a call does not pay its import

    parser = argparse.ArgumentParser(prog="polymix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for flag, keywords in command.arguments:
            subparser.add_argument(flag, **keywords)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """Read ``<command> POSITIONAL... [--flag VALUE]...`` from the command table.

    Every flag must be one of the command's table flags, spelled out, and
    no positional or value may start with "-"; argparse reads such an argv
    the same way, so the table's ``type``, ``choices``, ``required`` and
    ``default`` give the attributes argparse would set, less ``command``.
    Any other argv, and one that fails a conversion, a choice or a required
    flag, gets None, so that help, usage and error text come from argparse.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    positionals = [name for name, _ in command.arguments if not name.startswith("-")]
    given = dict(zip(positionals, argv[1:]))
    rest = argv[1 + len(positionals):]
    if len(given) < len(positionals) or len(rest) % 2 or any(
            value.startswith("-") for value in given.values()):
        return None
    options = {flag: keywords for flag, keywords in command.arguments if flag.startswith("-")}
    for flag, value in zip(rest[::2], rest[1::2]):
        keywords = options.get(flag)
        if keywords is None or value.startswith("-"):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except (TypeError, ValueError):
                return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value  # argparse keeps the last of a repeated flag
    namespace = SimpleNamespace()
    for name, keywords in command.arguments:
        if name not in given and keywords.get("required"):
            return None
        setattr(namespace, name.lstrip("-").replace("-", "_"),
                given.get(name, keywords.get("default")))
    return namespace


def _parse(argv: list[str]) -> tuple[str, SimpleNamespace | argparse.Namespace]:
    """The command and its arguments: from the table when argv is plain, else argparse."""
    args = _parse_plain(argv)
    if args is not None:
        return argv[0], args
    args = _build_parser().parse_args(argv)
    return args.command, args


def main(argv: list[str] | None = None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        report = _COMMANDS[command].run(args)
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
    try:
        print(jsonio.dumps(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
