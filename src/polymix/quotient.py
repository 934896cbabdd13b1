"""Canonical residues modulo a principal ideal <f> of F_p[u1^±1, ..., ud^±1].

Membership in the Laurent ideal <f> reduces to polynomial division: the
divisor is stripped to minimal exponents (monomials are units), after
which a single divisor is a Groebner basis of the polynomial ideal it
generates and that ideal is saturated with respect to every variable, so
the division remainder vanishes exactly on ideal members.

The dividend is only lifted out of negative exponents, never stripped
further.  This keeps ``reduce`` a genuine normal form on polynomials:
inputs that differ by a polynomial multiple of f have identical residue
values.  (A Laurent input is first multiplied by the smallest monomial
making it a polynomial; residues of inputs with negative exponents are
therefore canonical only up to that unit, while zero-ness never is.)

Term order: graded lexicographic, ties between monomials of equal total
degree broken lexicographically with the *last* variable most
significant.  Under this order the leading term of 1 + u1 + u2 is u2.

The modulus is prepared once: the first call with a given f normalizes
it, finds its leading term, the inverse of that coefficient and the tail,
and keeps them in f's ``_modulus`` slot with two residue tables, the axis
squares u_i^(2^j) and the monomial residues already computed.  Every later
call with the same f (one query holds one f) reuses them; nothing is kept
at module level, so the tables go when f does.

``_divide`` is the one division loop.  Every residue comes from it, and
it can also keep the quotient: the certificate of ``mixing`` divides
f(u^p) by f and multiplies the quotient back, so it does not rest on the
division alone.

``monomial_residue`` is the one routine that derives monomial residues:
from a kept neighbour u^(e - e_i) in one short division when it can, by
square-and-multiply on the axis squares otherwise.  ``measure`` reads a
window's residues from it and ``mixing`` sums them.  Because the
remainder is unique, a residue taken from a table, from a neighbour or
by a fresh division is the same polynomial.  The ``residue`` budget
bounds the term pairs multiplied for one modulus's tables, in its
products and neighbour steps and in the division steps that reduce them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field
from operator import add, ge, neg, sub

from . import budgets
from .errors import TrivialQuotientError
from .laurent import ExponentVec, LaurentPoly, _raw, monomial, one

__all__ = [
    "Residue",
    "grlex_key",
    "leading_term",
    "normalize",
    "reduce",
    "is_zero_mod",
    "nf",
    "residue_mul",
    "monomial_residue",
    "power_residue",
]


def grlex_key(e: ExponentVec):
    """Sort key: larger key means larger monomial."""
    return (sum(e), tuple(reversed(e)))


def leading_term(g: LaurentPoly) -> tuple[ExponentVec, int]:
    if g.is_zero:
        raise ValueError("zero polynomial has no leading term")
    e = max(g.terms, key=grlex_key)
    return e, g.terms[e]


def normalize(g: LaurentPoly) -> tuple[LaurentPoly, ExponentVec]:
    """Strip the largest monomial factor.

    Returns (u^{-shift} * g, shift) where shift is the componentwise
    minimum exponent, so the result has componentwise minimum 0.
    """
    if g.is_zero:
        raise ValueError("cannot normalize the zero polynomial")
    shift = g.min_exponents()
    neg = tuple(-s for s in shift)
    return g.shift(neg), shift


def _lift(g: LaurentPoly) -> tuple[LaurentPoly, ExponentVec]:
    # Clear negative exponents only; polynomials (and zero) pass through unchanged.
    shift = tuple(min(0, m) for m in g.min_exponents()) if g.terms else (0,) * g.dim
    if any(shift):
        g = g.shift(tuple(-s for s in shift))
    return g, shift


def _heapkey(e: ExponentVec):
    # min-heap key of the grlex order: the largest monomial pops first
    return (-sum(e), tuple(map(neg, reversed(e))))


class _Modulus:
    """Division data of f, computed once, and the residues shared against it.

    Stored in the polynomial's ``_modulus`` slot by ``_prepared``, so it
    lives exactly as long as f: every query that keeps using the same f
    reuses its axis squares and monomial residues.
    """

    __slots__ = ("p", "lt", "lt_inv", "tail", "squares", "monomials", "spent")

    def __init__(self, f: LaurentPoly) -> None:
        fhat, _ = normalize(f)
        p = self.p = f.p
        self.lt, lt_c = leading_term(fhat)
        self.lt_inv = pow(lt_c, p - 2, p) if p > 2 else 1
        self.tail = [(e, c) for e, c in fhat.terms.items() if e != self.lt]
        # (axis, j) -> residue of u_axis^(2^j); exps -> residue of u^exps
        self.squares: dict[tuple[int, int], LaurentPoly] = {}
        self.monomials: dict[ExponentVec, LaurentPoly] = {}
        self.spent = 0  # residue budget use; threads sharing f may lose an update


def _prepared(f: LaurentPoly) -> _Modulus:
    prepared = getattr(f, "_modulus", None)
    if prepared is None:
        if f.is_zero or f.is_monomial:
            raise TrivialQuotientError(
                "modulus is zero or a monomial, quotient ring is trivial"
            )
        prepared = _Modulus(f)
        object.__setattr__(f, "_modulus", prepared)
    return prepared


def _divide(work: dict[ExponentVec, int], m: _Modulus, quotient=None,
            limit: int | None = None) -> dict[ExponentVec, int]:
    """Remainder of division by the normalized modulus; consumes ``work``.

    Only terms divisible by the leading term enter the heap, largest
    first.  Replacing one introduces only strictly smaller terms, so a
    lazy heap with stale entries is enough, and the terms never divisible
    are left in place as the remainder.  The remainder is unique (a single
    divisor is a Groebner basis), whatever the order of the steps.  Each
    step's quotient term goes into the dict ``quotient`` when one is given.
    Given the ``residue`` budget's ``limit``, each step charges its term
    pairs, its quotient term times the tail, to the modulus's count.
    """
    p, lt, lt_inv, tail = m.p, m.lt, m.lt_inv, m.tail
    heap = [(_heapkey(e), e) for e in work if all(map(ge, e, lt))]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue  # stale entry
        if limit is not None:
            m.spent += len(tail)
            if m.spent > limit:
                budgets.check("residue", m.spent)
        q = (c * lt_inv) % p
        base = tuple(map(sub, e, lt))
        if quotient is not None:
            quotient[base] = q
        for fe, fc in tail:
            te = tuple(map(add, base, fe))
            old = work.get(te)
            nc = ((old or 0) - q * fc) % p
            if nc:
                if old is None and all(map(ge, te, lt)):
                    heapq.heappush(heap, (_heapkey(te), te))
                work[te] = nc
            elif old is not None:
                del work[te]
    return work


@dataclass(frozen=True)
class Residue:
    """Division remainder of a (lifted) element modulo f.

    ``shift`` records the monomial lift applied to the input: the residue
    represents u^{-shift} * g on the ideal coset.  Equality compares the
    remainder and modulus; the lift is bookkeeping.
    """

    value: LaurentPoly
    modulus: LaurentPoly
    shift: ExponentVec = dc_field(compare=False)

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero


def reduce(g: LaurentPoly, f: LaurentPoly) -> Residue:
    """Canonical residue of g modulo the Laurent ideal <f>.

    The remainder has no term divisible by the leading term of the
    normalized modulus, and it is zero exactly when g lies in <f>.
    """
    g._check_compatible(f)
    m = _prepared(f)
    lifted, shift = _lift(g)
    remainder = _divide(dict(lifted.terms), m)
    return Residue(_raw(g.field, g.dim, remainder), f, shift)


def is_zero_mod(g: LaurentPoly, f: LaurentPoly) -> bool:
    """True exactly when g lies in the Laurent ideal <f>."""
    return reduce(g, f).is_zero


def nf(g: LaurentPoly, f: LaurentPoly) -> LaurentPoly:
    """Shorthand for the remainder polynomial of reduce(g, f)."""
    return reduce(g, f).value


def residue_mul(a: LaurentPoly, b: LaurentPoly, f: LaurentPoly) -> LaurentPoly:
    """Product in the quotient ring, reduced immediately.

    Its term pairs are charged to the ``residue`` budget before the product
    is formed, and those of its division steps as they run.
    """
    m = _prepared(f)
    m.spent += len(a.terms) * len(b.terms)
    limit = budgets.check("residue", m.spent)
    g = a * b
    g._check_compatible(f)
    lifted, _ = _lift(g)
    return _raw(f.field, f.dim, _divide(dict(lifted.terms), m, limit=limit))


def power_residue(g: LaurentPoly, n: int, f: LaurentPoly) -> LaurentPoly:
    """Residue of g**n by square-and-multiply in the quotient ring.

    Required for exponents far beyond what term-by-term division could
    handle; each intermediate stays reduced.
    """
    if n < 0:
        raise ValueError("negative powers are not defined")
    result = nf(one(g.field, g.dim), f)
    base = nf(g, f)
    while n:
        if n & 1:
            result = residue_mul(result, base, f)
        base = residue_mul(base, base, f)
        n >>= 1
    return result


def _axis_square(f: LaurentPoly, m: _Modulus, axis: int, j: int) -> LaurentPoly:
    """Residue of u_axis^(2^j), the square of the one for j - 1."""
    result = m.squares.get((axis, j))
    if result is None:
        if j == 0:
            result = nf(monomial(f.field, f.dim, [int(i == axis) for i in range(f.dim)]), f)
        else:
            half = _axis_square(f, m, axis, j - 1)
            result = residue_mul(half, half, f)
        m.squares[axis, j] = result
    return result


def monomial_residue(exps: ExponentVec, f: LaurentPoly) -> LaurentPoly:
    """Residue of the monomial u^exps, all entries non-negative.

    Results are kept with f.  When a neighbour u^(exps - e_i) is already
    kept, the residue is one short division of u_i times the neighbour's,
    so a walk over a window or a box in lexicographic order divides once
    per point.  Otherwise it is the product of the axis squares u_i^(2^j)
    picked by the bits of each exponent, so dilated exponents like 2^12
    cost a handful of quotient multiplications.
    """
    if min(exps) < 0:
        raise ValueError(f"exponents must be non-negative, got {exps}")
    m = _prepared(f)
    exps = tuple(exps)
    result = m.monomials.get(exps)
    if result is not None:
        return result
    for axis, x in enumerate(exps):
        neighbour = m.monomials.get(exps[:axis] + (x - 1,) + exps[axis + 1:]) if x else None
        if neighbour is not None:
            m.spent += len(neighbour.terms)
            limit = budgets.check("residue", m.spent)
            step = {e[:axis] + (e[axis] + 1,) + e[axis + 1:]: c for e, c in neighbour.terms.items()}
            result = _raw(f.field, f.dim, _divide(step, m, limit=limit))
            break
    else:
        result = nf(one(f.field, f.dim), f)
        for axis, e in enumerate(exps):
            j = 0
            while e:
                if e & 1:
                    result = residue_mul(result, _axis_square(f, m, axis, j), f)
                e >>= 1
                j += 1
    m.monomials[exps] = result
    return result

