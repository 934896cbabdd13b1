"""Mixing-order bounds, non-mixing-shape certificates, relation checks.

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
from math import comb, prod
from operator import add, sub
from typing import Callable, Iterable, Sequence

from . import budgets, quotient
from .errors import InternalInconsistencyError
from .laurent import ExponentVec, LaurentPoly, _raw, frobenius_power, zero
from .polytope import LatticePolytope, hull
from .quotient import leading_term, monomial_residue, nf, normalize
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
    if len(f.terms) < 2:
        raise ValueError("bounds need a polynomial with at least two terms")
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

    Substituting u -> u^(p^(k-1)) is a ring endomorphism, so
    fhat(u^(p^k)) = fhat(u^(p^(k-1))) g(u^(p^(k-1))), a multiple of f by
    induction, for every k >= 1.  The second division runs over the box
    of side p w_i + 1 on each axis i, where w_i is fhat's span there, and
    the ``division`` budget bounds that box's monomials.  A failed check
    raises ``InternalInconsistencyError``.
    """
    if f.is_zero or f.is_monomial:
        raise ValueError("certificates need a non-monomial polynomial")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    shape = tuple(sorted(f.terms))
    coeffs = tuple(f.terms[n] for n in shape)
    fhat, base = normalize(f)
    if not nf(fhat, f).is_zero:
        raise InternalInconsistencyError(
            "dilated support relation failed to vanish at k=0"
        )
    if k_max > 0:
        budgets.check("division", prod(f.p * w + 1 for w in fhat.max_exponents()))
        g: dict[ExponentVec, int] = {}
        dilated = frobenius_power(fhat, 1).terms
        remainder = quotient._divide(dict(dilated), quotient._prepared(f), g)
        relation = {tuple(f.p * (x - b) for x, b in zip(n, base)): c for n, c in f.terms.items()}
        if remainder or (fhat * _raw(f.field, f.dim, g)).terms != relation:
            raise InternalInconsistencyError(
                "f(u^p) is not f times its division quotient: "
                "the dilated support relation is unproved"
            )
    return ShapeCertificate(shape, coeffs, tuple(range(k_max + 1)), True)


@dataclass(frozen=True)
class SequenceRelation:
    """Candidate relation sum_i a_i u^{n_i^{(j)}} = 0 mod f along tuples.

    ``tuples`` is either an explicit sequence of r-tuples of exponent
    vectors or a rule j -> r-tuple (e.g. Frobenius dilations of a shape).
    """

    coefficients: tuple[LaurentPoly, ...]
    tuples: Sequence[Sequence[ExponentVec]] | Callable[[int], Sequence[ExponentVec]]

    def tuple_at(self, j: int) -> tuple[ExponentVec, ...]:
        raw = self.tuples(j) if callable(self.tuples) else self.tuples[j]
        return tuple(tuple(v) for v in raw)

    def moving_apart(self, j_range: Iterable[int]) -> bool:
        """Are all pairwise separations non-decreasing and finally growing?

        A finite-range proxy for the requirement that every difference
        n_s - n_t escapes to infinity along the sequence: each pair's
        sup-norm separation must never shrink over the supplied range
        and must end strictly larger than it started (ranges of length
        one only require distinct points).
        """
        js = list(j_range)
        if not js:
            return True
        r = len(self.tuple_at(js[0]))
        pairs = [(s, t) for s in range(r) for t in range(s + 1, r)]
        for s, t in pairs:
            gaps = []
            for j in js:
                tup = self.tuple_at(j)
                gaps.append(max(abs(a - b) for a, b in zip(tup[s], tup[t])))
            if gaps[0] == 0:
                return False
            if any(b < a for a, b in zip(gaps, gaps[1:])):
                return False
            if len(gaps) > 1 and gaps[-1] <= gaps[0]:
                return False
        return True


def frobenius_rule(f: LaurentPoly) -> SequenceRelation:
    """The canonical relation: coefficients of f along k -> p^k * S(f)."""
    shape = sorted(f.terms)
    coeffs = tuple(
        LaurentPoly(f.field, f.dim, [((0,) * f.dim, f.terms[n])]) for n in shape
    )
    p = f.p

    def rule(k: int) -> tuple[ExponentVec, ...]:
        return tuple(tuple(p ** k * x for x in n) for n in shape)

    return SequenceRelation(coeffs, rule)


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
    of quotient multiplications instead of term-by-term division.
    """
    if len(coefficients) != len(exponents):
        raise ValueError("one coefficient per exponent vector is required")
    shifted = []
    for a, n in zip(coefficients, exponents):
        a._check_compatible(f)
        shifted += [(tuple(map(add, m, n)), c) for m, c in a.terms.items()]
    if not shifted:
        return zero(f.field, f.dim)
    shift = tuple(map(min, zip(*(e for e, _ in shifted))))
    return LaurentPoly(f.field, f.dim, [
        (e, c * v)
        for x, c in shifted
        for e, v in monomial_residue(tuple(map(sub, x, shift)), f).terms.items()
    ])


def check_relation(
    rel: SequenceRelation, f: LaurentPoly, j_range: Iterable[int]
) -> list[tuple[int, bool]]:
    """Evaluate the relation at each index; True means it vanishes mod f."""
    for a in rel.coefficients:
        a._check_compatible(f)
        if nf(a, f).is_zero:
            raise ValueError("relation coefficients must be nonzero modulo f")
    results = []
    for j in j_range:
        exps = rel.tuple_at(j)
        if len(exps) != len(rel.coefficients):
            raise ValueError(f"tuple at j={j} has wrong arity")
        for n in exps:
            if len(n) != f.dim:
                raise ValueError(f"exponent vector {n} has wrong dimension")
        results.append((j, relation_value(rel.coefficients, exps, f).is_zero))
    return results


def _coefficient_space(f: LaurentPoly, degree_bound: int) -> list[LaurentPoly]:
    """All nonzero polynomials with exponents in [0, degree_bound]^d."""
    monos = list(product(range(degree_bound + 1), repeat=f.dim))
    polys = []
    for coeffs in product(range(f.p), repeat=len(monos)):
        if any(coeffs):
            polys.append(LaurentPoly(f.field, f.dim, list(zip(monos, coeffs))))
    return polys


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
    if f.is_zero or f.is_monomial:
        raise ValueError("search needs a non-monomial polynomial")
    if r < 2:
        raise ValueError("shapes need at least two points")

    p, d = f.p, f.dim
    n_points = (2 * shape_radius + 1) ** d
    n_coeffs = p ** ((coeff_degree_bound + 1) ** d) - 1
    budgets.check("search", comb(n_points, r) * n_coeffs ** r)
    points = list(product(range(2 * shape_radius + 1), repeat=d))
    shapes = [s for s in combinations(points, r) if not any(map(min, zip(*s)))]
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

    canon_support = tuple(sorted(normalize(f)[0].terms))
    found: list[ShapeCertificate] = []
    for shape in shapes:
        for first in lead_one:
            for rest in product(coeff_pool, repeat=r - 1):
                coeffs = (first, *rest)
                if all(vanishes(coeffs, shape, k) for k in ks):
                    frob = _matches_support_pattern(f, shape, coeffs, canon_support)
                    out_coeffs = tuple(
                        c.terms[(0,) * d]
                        if c.is_monomial and (0,) * d in c.terms
                        else c
                        for c in coeffs
                    )
                    found.append(ShapeCertificate(shape, out_coeffs, ks, frob))
    return found


def _matches_support_pattern(
    f: LaurentPoly,
    shape: tuple[ExponentVec, ...],
    coeffs: tuple[LaurentPoly, ...],
    canon_support: tuple[ExponentVec, ...],
) -> bool:
    """Does (shape, coeffs) coincide with S(f) and a scaling of c_{f,n}?"""
    if shape != canon_support:
        return False
    zero_exp = (0,) * f.dim
    scalars = []
    for c in coeffs:
        if not (c.is_monomial and zero_exp in c.terms):
            return False
        scalars.append(c.terms[zero_exp])
    support_sorted = sorted(f.terms)
    f_scalars = [f.terms[n] for n in support_sorted]
    p = f.p
    ratio = scalars[0] * pow(f_scalars[0], p - 2, p) % p
    return all(
        (ratio * fc) % p == sc for fc, sc in zip(f_scalars, scalars)
    )
