"""Command-line interface.

    polymix analyze    POLY.json [--max-k K]
    polymix bounds     POLY.json
    polymix tightness  SKELETON.json
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
range -- a negative --max-k, --K, --radius or --coeff-degree, an --r
below 2 -- or a POLYMIX_BUDGET that is not a positive integer),
2 degenerate input (zero/monomial polynomial, degenerate polytope,
repeated --shape points, a --k-range holding 0 for two or more --shape
points, or a float skeleton whose edge directions leave float range) or
a usage error reported by argparse
(an unknown subcommand or flag, a missing required flag, or a flag value
of the wrong type, such as --max-k x), 3 budget exceeded
(the message names the budget, its use and its limit), 4 internal error
(a machine check failed), 141 stdout closed before the report was written
(128 + SIGPIPE, as a shell reports for ``yes | head``).  The environment
variable POLYMIX_BUDGET overrides every budget of ``budgets``; it is
checked before the command reads its input, so a malformed value exits 1
whatever the command and input.  The budgets: ``cells`` (the cells of
the window's bounding box for --method box), ``enumeration``
(brute-force configurations), ``search`` (search candidates),
``division`` (the monomials of the certificate's division box on the
lattice of f's exponent gcds), ``detector`` (the detector's
placements), ``hull`` (the visibility tests of a convex hull,
outside-set assignments and the walk to the facets a point sees, plus k
for each facet normal it builds in dimension k), ``redraw`` (the
neighbour tests of the triangle scan, or the cells of the rank system of
a skeleton's redrawings), ``experiment`` (the rows over k: those of
--k-range, or 0..--max-k for certify and analyze) and ``residue`` (the
term pairs of the quotient products and divisions behind one
polynomial's monomial residues).
"""

from __future__ import annotations

import os
import reprlib
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import budgets, jsonio
from .errors import BudgetExceededError, InternalInconsistencyError, ParseError
from .measure import joint_measure, mixing_experiment
from .mixing import (
    IRREDUCIBILITY_WARNING,
    frobenius_certificate,
    mixing_bounds,
    search_relations,
)
from .redraw import redraw_space
from .seqgeom import detect_redrawing

if TYPE_CHECKING:
    import argparse


def _at_least(value, lo: int, flag: str):
    if value < lo:
        raise ParseError(f"{flag} must be >= {lo}, got {value}")
    return value


def _cmd_analyze(args) -> dict:
    poly = jsonio.load_poly(args.poly)
    max_k = _at_least(args.max_k, 0, "--max-k")
    bounds, polytope = mixing_bounds(poly)
    certificate = frobenius_certificate(poly, max_k)
    return {
        "input": jsonio.to_json_dict(poly),
        "support": [list(n) for n in sorted(poly.terms)],
        "polytope": jsonio.polytope_json(polytope),
        "bounds": bounds._asdict(),
        "certificate": jsonio.certificate_json(certificate),
        "warnings": [IRREDUCIBILITY_WARNING],
    }


def _cmd_bounds(args) -> dict:
    poly = jsonio.load_poly(args.poly)
    bounds, polytope = mixing_bounds(poly)
    return {
        "input": jsonio.to_json_dict(poly),
        "polytope": jsonio.polytope_json(polytope),
        "bounds": bounds._asdict(),
    }


def _cmd_tightness(args) -> dict:
    space = redraw_space(jsonio.load_skeleton(args.skeleton))._asdict()
    return {key: value for key, value in space.items() if value is not None}  # no tolerance when exact


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
        shifts = jsonio.parse_vectors(args.shifts, poly.dim, "--shifts")
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
    shape = jsonio.parse_vectors(args.shape, poly.dim, "--shape")
    cylinder = jsonio.load_cylinder(args.cylinder, poly.dim)
    rows = mixing_experiment(
        poly,
        shape,
        [cylinder] * len(shape),
        _parse_k_range(args.k_range),
        method=args.method,
    )
    # an unavailable row has no joint, product or gap; the rest are fractions
    return {"rows": [
        {key: value if key in ("k", "available") else jsonio.fraction_json(value)
         for key, value in row._asdict().items() if value is not None}
        for row in rows
    ]}


def _cmd_detect(args) -> dict:
    poly = jsonio.load_poly(args.poly)
    points = jsonio.parse_vectors(args.tuple, poly.dim, "--tuple")
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
                          [("skeleton", {})], _cmd_tightness),
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
        budgets.check_override()
        report = _COMMANDS[command].run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
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
