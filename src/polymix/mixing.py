"""Mixing-order bounds, non-mixing-shape certificates, relation values.

For an action defined by a non-monomial f with v Newton-polytope
vertices, the order of mixing M and the shape order S satisfy
v - 1 <= M <= S <= |S(f)| - 1; when the polytope is tight the two orders
agree.  The support itself is always a non-mixing shape: dilating by p^k
turns f into its p^k-th power, which still lies in <f>.  The certificate
machine-checks the two facts this rests on, whatever the largest k: the
normalized f reduces to zero modulo f, and f(u^p) divided by f leaves no
remainder and a quotient that multiplies back to the dilated support.
Every larger k follows by substitution, so a bug in the division, the
product or the dilation fails the certificate, never passing silently.

Irreducibility of f is an assumption of the bounds and is *asserted by
the caller*, never verified; reports carry a warning to that effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import gcd, prod
from operator import add, sub
from typing import Sequence

from . import budgets
from .errors import InternalInconsistencyError
from .laurent import ExponentVec, LaurentPoly, frobenius_power, zero
from .polytope import LatticePolytope, hull
from .quotient import (
    check_modulus,
    divides_exactly,
    leading_term,
    monomial_residue,
    nf,
    normalize,
)
from .redraw import redraw_space, skeleton_from_polytope

IRREDUCIBILITY_WARNING = (
    "irreducibility of the input polynomial is asserted by the caller, not verified"
)


@dataclass(frozen=True)
class MixingBounds:
    vertex_count: int
    support_size: int
    lower: int
    upper: int
    polytope_tight: bool
    redraw_dimension: int
    conclusion: str


def mixing_bounds(f: LaurentPoly) -> tuple[MixingBounds, LatticePolytope]:
    """Mixing-order bounds and the tightness conclusion for f."""
    check_modulus(f)
    poly = hull(f.support())
    v = poly.vertex_count
    size = len(f.terms)
    lower, upper = v - 1, size - 1
    if not 1 <= lower <= upper:
        raise InternalInconsistencyError("bounds violate 1 <= v-1 <= |S(f)|-1")

    space = redraw_space(skeleton_from_polytope(poly))
    if lower == upper:
        conclusion = f"M=S={lower}"
    elif space.tight:
        conclusion = f"M=S within [{lower},{upper}]"
    else:
        conclusion = f"M in [{lower},?], S in [?,{upper}]"
    return (
        MixingBounds(v, size, lower, upper, space.tight, space.dimension, conclusion),
        poly,
    )


@dataclass(frozen=True)
class ShapeCertificate:
    """A shape with coefficients making the dilated relation vanish mod f.

    ``frobenius_family`` marks the support-of-f pattern, for which the
    relation holds for every dilation exponent; other search hits are
    candidates verified only at the listed dilations.
    """

    shape: tuple[ExponentVec, ...]
    coefficients: tuple
    verified_k: tuple[int, ...]
    frobenius_family: bool


def frobenius_certificate(f: LaurentPoly, k_max: int) -> ShapeCertificate:
    """Certificate that S(f) is a non-mixing shape, for every k <= k_max.

    With base the componentwise minimum of S(f) and fhat = u^(-base) f,
    the dilated relation at k is sum_n c_n u^(p^k (n - base)) =
    fhat(u^(p^k)).  Two divisions, whose cost does not depend on k, prove
    it vanishes modulo f for every k:

    - k = 0: fhat reduces to zero modulo f;
    - k = 1: ``frobenius_power(fhat, 1)`` divided by f leaves remainder
      zero and a quotient g with fhat g the relation read off the shape.
      ``quotient.divides_exactly`` packs the dilation once, keeps g on
      packed keys, and forms fhat g and compares it with the relation,
      both read off f's own terms, in the same packed frame.

    Substituting u -> u^(p^(k-1)) is a ring endomorphism, so
    fhat(u^(p^k)) = fhat(u^(p^(k-1))) g(u^(p^(k-1))), a multiple of f by
    induction, for every k >= 1.  Every monomial of the second division
    lies in the box [0, p w_i] on each axis i, where w_i is fhat's span
    there, and on the lattice of multiples of g_i, the gcd of fhat's
    exponents on that axis (1 when they are all 0); the ``division``
    budget bounds the prod (p w_i / g_i + 1) such monomials.  The
    ``experiment`` budget bounds the k_max + 1 rows of ``verified_k``.
    A failed check raises ``InternalInconsistencyError``.
    """
    check_modulus(f)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    budgets.check("experiment", k_max + 1)
    shape = tuple(sorted(f.terms))
    coeffs = tuple(f.terms[n] for n in shape)
    fhat, base = normalize(f)
    if not nf(fhat, f).is_zero:
        raise InternalInconsistencyError(
            "dilated support relation failed to vanish at k=0"
        )
    if k_max > 0:
        budgets.check("division", prod(f.p * max(axis) // (gcd(*axis) or 1) + 1
                                       for axis in zip(*fhat.terms)))
        relation = {tuple(f.p * (x - b) for x, b in zip(n, base)): c for n, c in f.terms.items()}
        if not divides_exactly(frobenius_power(fhat, 1).terms, f, relation):
            raise InternalInconsistencyError(
                "f(u^p) is not f times its division quotient: "
                "the dilated support relation is unproved"
            )
    return ShapeCertificate(shape, coeffs, tuple(range(k_max + 1)), True)


def relation_value(
    coefficients: Sequence[LaurentPoly],
    exponents: Sequence[ExponentVec],
    f: LaurentPoly,
) -> LaurentPoly:
    """Residue of sum_i a_i u^{n_i} modulo f.

    A common monomial shift (a unit, so zero-ness is preserved), the
    componentwise minimum of m + n_i over the terms c u^m of every a_i,
    clears negative exponents.  The remainder modulo f is unique, so
    reduction is linear and the residue is the F_p sum of
    c * monomial_residue(m + n_i - shift); huge dilations cost a handful
    of quotient multiplications instead of term-by-term division.  The
    relation vanishes along the tuple (n_i) exactly when the residue
    ``is_zero``.
    """
    if len(coefficients) != len(exponents):
        raise ValueError("one coefficient per exponent vector is required")
    shifted = []
    for a, n in zip(coefficients, exponents):
        a._check_compatible(f)
        if len(n) != f.dim:
            raise ValueError(f"exponent vector {tuple(n)} has wrong dimension")
        shifted += [(tuple(map(add, m, n)), c) for m, c in a.terms.items()]
    if not shifted:
        return zero(f.field, f.dim)
    shift = tuple(map(min, zip(*(e for e, _ in shifted))))
    return LaurentPoly(f.field, f.dim, [
        (e, c * v)
        for x, c in shifted
        for e, v in monomial_residue(tuple(map(sub, x, shift)), f).terms.items()
    ])


def _coefficient_space(f: LaurentPoly, degree_bound: int) -> list[LaurentPoly]:
    """All nonzero polynomials with exponents in [0, degree_bound]^d."""
    monos = list(product(range(degree_bound + 1), repeat=f.dim))
    polys = []
    for coeffs in product(range(f.p), repeat=len(monos)):
        if any(coeffs):
            polys.append(LaurentPoly(f.field, f.dim, list(zip(monos, coeffs))))
    return polys


def _candidate_count(n_points: int, r: int, p: int, monos: int, limit: int) -> int:
    """comb(n_points, r) * (p^monos - 1)^r, the search's candidates.

    The factors are multiplied one at a time, and the running product is
    returned as soon as it passes ``limit``: a count past the limit is
    never built in full, however many digits it has.
    """
    if r > n_points:
        return 0
    used = 1
    # comb(n, i) grows with i up to n / 2, so the running binomial passes
    # the limit only if comb(n, r) does
    for i in range(min(r, n_points - r)):
        used = used * (n_points - i) // (i + 1)
        if used > limit:
            return used
    pool = 1
    for _ in range(monos):
        pool *= p
        if pool - 1 > limit:
            break
    for _ in range(r):
        used *= pool - 1
        if used > limit:
            break
    return used


def search_relations(
    f: LaurentPoly,
    r: int,
    shape_radius: int,
    coeff_degree_bound: int = 0,
) -> list[ShapeCertificate]:
    """Bounded exhaustive search for candidate non-mixing shapes.

    Enumerates r-point shapes inside [-radius, radius]^d up to
    translation, and coefficients up to the degree bound (the first
    coefficient is normalized so the grlex-leading coefficient is 1,
    since relations scale).  Each candidate must vanish modulo f at the
    dilations k in {1, p, p^2} -- a necessary-condition filter, so the
    output is labeled candidate unless it matches the support-of-f
    pattern.

    One shape per translation class is taken directly: the r-subsets of
    the sorted points of [0, 2 radius]^d whose coordinate minima are all
    0, in sorted order.  One residue table, local to the call, holds the
    residue of u^(m + k n) for every coefficient monomial m, point n of
    that box and k.  The remainder modulo f is unique, so reduction is
    linear: a candidate vanishes at k exactly when the F_p sum of its
    coefficient-weighted table entries is zero, and no candidate is
    divided.
    """
    check_modulus(f)
    if r < 2:
        raise ValueError("shapes need at least two points")

    p, d = f.p, f.dim
    n_points = (2 * shape_radius + 1) ** d
    monos = (coeff_degree_bound + 1) ** d
    limit = budgets.check("search", 0)  # the limit, which no use of 0 passes
    budgets.check("search", _candidate_count(n_points, r, p, monos, limit))
    points = list(product(range(2 * shape_radius + 1), repeat=d))
    shapes = [s for s in combinations(points, r) if not any(map(min, zip(*s)))]
    if not shapes:  # r > n_points: the budget counted no candidate, so build no pool
        return []
    # coefficients vanishing in the quotient would make any relation vacuous
    coeff_pool = [
        a for a in _coefficient_space(f, coeff_degree_bound) if not nf(a, f).is_zero
    ]
    lead_one = [a for a in coeff_pool if leading_term(a)[1] == 1]
    ks = (1, p, p * p)
    # (m, n, k) -> terms of the residue of u^(m + k n), filled on first use:
    # most candidates fail at k = 1 and never need the larger dilations
    table: dict[tuple[ExponentVec, ExponentVec, int], dict[ExponentVec, int]] = {}

    def vanishes(
        coeffs: tuple[LaurentPoly, ...], shape: tuple[ExponentVec, ...], k: int
    ) -> bool:
        acc: dict[ExponentVec, int] = {}
        for a, n in zip(coeffs, shape):
            for m, c in a.terms.items():
                key = (m, n, k)
                if key not in table:
                    exps = tuple(mi + k * ni for mi, ni in zip(m, n))
                    table[key] = monomial_residue(exps, f).terms
                for e, v in table[key].items():
                    acc[e] = acc.get(e, 0) + c * v
        return not any(v % p for v in acc.values())

    fhat = normalize(f)[0].terms
    canon_support = tuple(sorted(fhat))
    found: list[ShapeCertificate] = []
    for shape in shapes:
        for first in lead_one:
            for rest in product(coeff_pool, repeat=r - 1):
                coeffs = (first, *rest)
                if all(vanishes(coeffs, shape, k) for k in ks):
                    out = tuple(
                        c.terms[(0,) * d]
                        if c.is_monomial and (0,) * d in c.terms
                        else c
                        for c in coeffs
                    )
                    # the support pattern: S(f) with constants proportional to f's
                    frob = shape == canon_support and all(
                        isinstance(c, int) and c * fhat[shape[0]] % p == out[0] * fhat[n] % p
                        for c, n in zip(out, shape)
                    )
                    found.append(ShapeCertificate(shape, out, ks, frob))
    return found

