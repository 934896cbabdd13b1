"""Compare one query's exit code and stdout with its expected answer.

``check(query, rc, stdout)`` returns None when the answer is right and a
one-line reason otherwise.  The expectations come from ``workloads`` (the
oracles there); this module only reads the JSON the CLI printed.
"""

from __future__ import annotations

import json

import oracles

IRREDUCIBILITY = "irreducibility of the input polynomial is asserted by the caller, not verified"


class Wrong(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def _certificate(out: dict, exp: dict) -> None:
    _require(out.get("shape") == exp["shape"], "shape is not sorted S(f)")
    _require(out.get("coeffs") == exp["coeffs"], "coefficients are not those of f")
    _require(out.get("verified_k") == exp["verified_k"], "verified_k is not [0..k]")
    _require(out.get("frobenius_family") is True, "support certificate not marked frobenius_family")


def _terms(exp: dict) -> dict:
    return {tuple(e): c for e, c in exp["terms"]}


def _check_analyze(out, exp):
    terms = _terms(exp)
    _require(out.get("support") == [list(e) for e in sorted(terms)], "support is not sorted S(f)")
    _certificate(out.get("certificate", {}), exp)
    b = out.get("bounds", {})
    v, n = exp["vertex_count"], len(terms)
    _require(b.get("vertex_count") == v, f"vertex_count {b.get('vertex_count')} != {v}")
    _require(b.get("support_size") == n, "support_size != |S(f)|")
    _require(b.get("lower") == v - 1 and b.get("upper") == n - 1, "bounds are not [v-1, |S|-1]")
    # a polygon is tight exactly when it is a triangle
    _require(b.get("polytope_tight") in (None, v == 3), "polygon tightness is wrong")
    _require(IRREDUCIBILITY in out.get("warnings", []), "irreducibility warning missing")


def _check_search(out, exp):
    terms = _terms(exp)
    p, r = exp["p"], exp["r"]
    cands = out.get("candidates")
    _require(isinstance(cands, list), "no candidate list")
    support = sorted(terms)
    base = [min(e[i] for e in support) for i in range(2)]
    canon = [[e[0] - base[0], e[1] - base[1]] for e in support]
    for c in cands:
        shape, coeffs = c.get("shape"), c.get("coeffs")
        _require(isinstance(shape, list) and len(shape) == r, "candidate shape has the wrong size")
        _require(all(isinstance(a, int) for a in coeffs), "degree-0 search returned a polynomial coefficient")
        _require(c.get("verified_k") == [1, p, p * p], "verified_k is not [1, p, p^2]")
        # with constant coefficients the relation at dilation p^j is the
        # p^j-th power of the one at 1, so divisibility at 1 covers all three
        g = {}
        for n, a in zip(shape, coeffs):
            g[tuple(n)] = (g.get(tuple(n), 0) + a) % p
        g = {e: a for e, a in g.items() if a}
        _require(oracles.divides(terms, g, p), "candidate relation is not in <f>")
    if r == len(terms):
        inv = pow(terms[support[0]], p - 2, p)
        scaled = [terms[e] * inv % p for e in support]
        _require(any(c["shape"] == canon and c["coeffs"] == scaled and c["frobenius_family"] for c in cands),
                 "the support pattern of f was not found")


def _check_measure(out, exp):
    _require(out.get("value") == exp["value"], f"measure {out.get('value')} != {exp['value']}")
    if "box" in exp:
        _require(out.get("method") == "box", "box query answered by another method")


def _check_experiment(out, exp):
    _require(out.get("rows") == exp["rows"], "experiment rows differ from the oracle")


def _check_bounds(out, exp):
    b = out.get("bounds", {})
    poly = out.get("polytope", {})
    v, n, k = exp["vertex_count"], exp["support_size"], exp["affine_dim"]
    _require(b.get("vertex_count") == v, f"vertex_count {b.get('vertex_count')} != Qhull's {v}")
    _require(len(poly.get("vertices", [])) == v, "polytope vertex list has the wrong length")
    _require(b.get("support_size") == n, "support_size != |S(f)|")
    _require(b.get("lower") == v - 1 and b.get("upper") == n - 1, "bounds are not [v-1, |S|-1]")
    _require(poly.get("affine_dim") == k, f"affine_dim {poly.get('affine_dim')} != {k}")
    tight = b.get("polytope_tight")
    if k == 1:
        _require(tight in (None, True), "a segment is tight")
    elif k == 2:
        _require(tight in (None, v == 3), "polygon tightness is wrong")
    elif exp["simplicial"]:
        # null is the "undetermined" answer for affine dimension > 3
        _require(tight in (None, True), "simplicial hull reported not tight")
    if tight is True:
        _require(b.get("redraw_dimension") == k + 1, "tight hull with redraw dimension != k+1")


def _check_tightness(out, exp):
    for key in ("dimension", "tight", "constraint_rank", "arithmetic"):
        _require(out.get(key) == exp[key], f"{key} {out.get(key)!r} != {exp[key]!r}")
    if exp["simplicial"]:
        _require(out.get("tight") is True, "simplicial skeleton reported not tight")


def _check_detect(out, exp):
    match = out.get("match")
    _require(match is not None, "no match found")
    h = match.get("homothety")
    _require(h is not None, "no homothety recovered")
    _require(h["scale"] == {"num": exp["scale"], "den": 1}, f"scale {h['scale']} != p^k = {exp['scale']}")
    _require(match.get("K") == exp["K"], f"K {match.get('K')} != minimal cap {exp['K']}")


CHECKS = {
    "certify": _certificate,
    "analyze": _check_analyze,
    "search": _check_search,
    "measure-exact": _check_measure,
    "measure-box": _check_measure,
    "measure-joint": _check_measure,
    "experiment": _check_experiment,
    "bounds": _check_bounds,
    "tightness-exact": _check_tightness,
    "tightness-float": _check_tightness,
    "detect": _check_detect,
}


def check(query: dict, rc, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc!r}, expected 0"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    try:
        CHECKS[query["kind"]](out, query["expect"])
    except Wrong as exc:
        return str(exc)
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
