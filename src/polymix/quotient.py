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

``check_modulus`` is the one test that f is a usable modulus: neither
zero nor a monomial.  The modulus is prepared once: the first call with a
given f checks it, normalizes it, finds its leading term, the inverse of
that coefficient and the tail, and keeps them in f's ``_modulus`` slot
with a ``residue`` meter and two residue tables, the axis squares
u_i^(2^j) and the monomial residues already computed.  Every later
call with the same f (one query holds one f) reuses them; nothing is kept
at module level, so the tables go when f does.

``_divide`` is the one division loop.  Every residue comes from it, and
it can also keep the quotient: the certificate of ``mixing`` divides
f(u^p) by f and multiplies the quotient back (``divides_exactly``), so it
does not rest on the division alone.

Packed monomials (Monagan and Pearce, CASC 2007): ``_divide`` works on
ints, not tuples.

- Key layout: a non-negative exponent vector e of total degree t is the
  int whose fields hold, from the top, t, e_d, ..., e_1, ``width`` bits
  each.  Int order is then the grlex order above, and the key of a
  product of monomials is the sum of their keys.
- Guard bits: the top bit of each field is never set by its value.  With
  G the mask of these bits, key k is divisible by the leading key l
  exactly when ((k | G) - l) & G == G: a field of k smaller than l's
  borrows from its own guard bit, never from the next field.
- Width: the dividend's largest total degree D and a guard bit, rounded
  up to a multiple of 8.  A division step replaces a term by smaller
  ones, so no term, quotient term, or quotient term times a term of f
  passes degree D, and no field overflows.  ``_Modulus.frame`` packs f's
  leading term and tail once per width and keeps them with f.
- Precondition: every exponent is non-negative.  ``reduce`` and
  ``residue_mul`` meet it through ``_lift``, ``monomial_residue``
  through its checked exponents and reduced neighbours, and the
  certificate through normalization.
- Early exit: the callers on tuple keys (``reduce``, ``residue_mul``,
  ``monomial_residue``) first scan the dividend for a term divisible by
  the leading term, and return it as it is when there is none.  Only
  when there is one do they pack it, divide and unpack the remainder.
  Packed keys never leave this module.

``monomial_residue`` is the one routine that derives monomial residues:
from a kept neighbour u^(e - e_i) in one short division when it can, by
square-and-multiply on the axis squares otherwise.  ``measure`` reads a
window's residues from it and ``mixing`` sums them.  Because the
remainder is unique, a residue taken from a table, from a neighbour or
by a fresh division is the same polynomial.  The ``residue`` budget
bounds the term pairs multiplied for one modulus's tables, in its
products and neighbour steps and in the division steps that reduce them.
Its meter lives with the tables, on the polynomial object, and is never
reset: a library caller who reuses one f across queries shares one count
among them, while the command line loads f afresh for each query.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import ge, mul
from typing import Mapping, NamedTuple

from . import budgets
from .errors import TrivialQuotientError
from .laurent import ExponentVec, LaurentPoly, _raw, monomial, one

__all__ = [
    "Residue",
    "check_modulus",
    "divides_exactly",
    "grlex_key",
    "leading_term",
    "normalize",
    "reduce",
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


def _lift(g: LaurentPoly) -> LaurentPoly:
    # Clear negative exponents only; polynomials (and zero) pass through unchanged.
    shift = tuple(min(0, m) for m in g.min_exponents()) if g.terms else (0,) * g.dim
    if any(shift):
        g = g.shift(tuple(-s for s in shift))
    return g


def _width(degree: int) -> int:
    """Bits per packed field: ``degree`` and a guard bit, rounded up to a multiple of 8."""
    return (degree.bit_length() + 8) // 8 * 8


def _weights(dim: int, width: int) -> tuple[int, ...]:
    """Packing multipliers: e_i counts once in field i and once, in t, in field dim."""
    top = 1 << dim * width
    return tuple((1 << i * width) + top for i in range(dim))


def _pack(e: ExponentVec, weights: tuple[int, ...]) -> int:
    """The packed key t e_d ... e_1 of a non-negative exponent vector."""
    return sum(map(mul, e, weights))


class _Frame(NamedTuple):
    """The normalized modulus packed at one field width."""

    weights: tuple[int, ...]
    shifts: range  # field i of a key is key >> shifts[i] & mask
    mask: int
    guard: int  # the guard bit of every field
    lt: int
    tail: tuple[tuple[int, int], ...]


def check_modulus(f: LaurentPoly) -> None:
    """Raise ``TrivialQuotientError`` when f is zero or a monomial."""
    if f.is_zero or f.is_monomial:
        raise TrivialQuotientError("modulus is zero or a monomial, quotient ring is trivial")


class _Modulus:
    """Division data of f, computed once, and the residues shared against it.

    Stored in the polynomial's ``_modulus`` slot by ``_prepared``, so it
    lives exactly as long as f: every query that keeps using the same f
    reuses its axis squares and monomial residues.
    """

    __slots__ = ("p", "lt", "lt_inv", "tail", "frames", "squares", "monomials", "residue")

    def __init__(self, f: LaurentPoly) -> None:
        check_modulus(f)
        fhat, _ = normalize(f)
        p = self.p = f.p
        self.lt, lt_c = leading_term(fhat)
        self.lt_inv = pow(lt_c, p - 2, p) if p > 2 else 1
        self.tail = [(e, c) for e, c in fhat.terms.items() if e != self.lt]
        self.frames: dict[int, _Frame] = {}  # width -> f packed at that width
        # (axis, j) -> residue of u_axis^(2^j); exps -> residue of u^exps
        self.squares: dict[tuple[int, int], LaurentPoly] = {}
        self.monomials: dict[ExponentVec, LaurentPoly] = {}
        self.residue = budgets.Meter("residue")

    def frame(self, width: int) -> _Frame:
        """The leading term and the tail packed at ``width``, built once per width."""
        frame = self.frames.get(width)
        if frame is None:
            dim = len(self.lt)
            weights = _weights(dim, width)
            guard = sum(1 << (i * width + width - 1) for i in range(dim + 1))
            tail = tuple((_pack(e, weights), c) for e, c in self.tail)
            frame = _Frame(weights, range(0, dim * width, width), (1 << width) - 1, guard,
                           _pack(self.lt, weights), tail)
            self.frames[width] = frame
        return frame


def _prepared(f: LaurentPoly) -> _Modulus:
    prepared = getattr(f, "_modulus", None)
    if prepared is None:
        prepared = _Modulus(f)
        object.__setattr__(f, "_modulus", prepared)
    return prepared


def _divide(work: dict[int, int], m: _Modulus, frame: _Frame, quotient=None,
            charge: bool = False) -> dict[int, int]:
    """Remainder of division by the normalized modulus; consumes ``work``.

    ``work`` maps packed keys of ``frame``'s width to coefficients.  Only
    terms divisible by the leading term enter the heap, largest first.
    Replacing one introduces only strictly smaller terms, so a lazy heap
    with stale entries is enough, and the terms never divisible are left
    in place as the remainder.  The remainder is unique (a single divisor
    is a Groebner basis), whatever the order of the steps.  Each step's
    packed quotient term goes into the dict ``quotient`` when one is
    given.  With ``charge``, each step charges its term pairs, its
    quotient term times the tail, to the modulus's ``residue`` count.
    """
    p, lt_inv = m.p, m.lt_inv
    guard, lt, tail = frame.guard, frame.lt, frame.tail
    push = heapq.heappush
    heap = [-k for k in work if ((k | guard) - lt) & guard == guard]  # a max-heap
    heapq.heapify(heap)
    while heap:
        k = -heapq.heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue  # stale entry
        if charge:
            m.residue.charge(len(tail))
        q = (c * lt_inv) % p
        base = k - lt
        if quotient is not None:
            quotient[base] = q
        for fk, fc in tail:
            t = base + fk
            old = work.get(t)
            nc = ((old or 0) - q * fc) % p
            if nc:
                if old is None and ((t | guard) - lt) & guard == guard:
                    push(heap, -t)
                work[t] = nc
            elif old is not None:
                del work[t]
    return work


def _reduced(work: dict[ExponentVec, int], m: _Modulus,
             charge: bool = False) -> dict[ExponentVec, int]:
    """Remainder of a dividend on non-negative exponent vectors; may be ``work`` itself.

    A dividend with no term divisible by the leading term is its own
    remainder and is returned at once; any other is packed, divided and
    unpacked.
    """
    lt = m.lt
    for e in work:
        if all(map(ge, e, lt)):
            break
    else:
        return work
    frame = m.frame(_width(max(map(sum, work))))
    weights, shifts, mask = frame.weights, frame.shifts, frame.mask
    # _pack, inlined to save a call per term
    vectors = {sum(map(mul, e, weights)): e for e in work}
    remainder = _divide(dict(zip(vectors, work.values())), m, frame, charge=charge)
    # most remainder terms are dividend terms the division never touched
    return {vectors.get(k) or tuple([k >> s & mask for s in shifts]): c
            for k, c in remainder.items()}


def _product(a: list[tuple[int, int]], b: dict[int, int], p: int) -> dict[int, int]:
    """Product of two packed polynomials over F_p, term pairs summed in full."""
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a:
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: r for k, c in out.items() if (r := c % p)}


def divides_exactly(dividend: Mapping[ExponentVec, int], f: LaurentPoly,
                    product: Mapping[ExponentVec, int]) -> bool:
    """Whether fhat divides ``dividend`` with quotient g such that fhat g is ``product``.

    fhat is f normalized.  Both term maps have non-negative exponents.
    The division runs in one packed frame, whose width covers the largest
    total degree of the dividend, of ``product`` and of f's leading term;
    the quotient stays packed, and fhat, read off f's own terms, times
    the quotient is compared with ``product`` in the same frame.  True
    exactly when the remainder is zero and the product matches.
    """
    m = _prepared(f)
    frame = m.frame(_width(max(map(sum, (*dividend, *product, m.lt)))))
    weights = frame.weights
    g: dict[int, int] = {}
    if _divide({_pack(e, weights): c for e, c in dividend.items()}, m, frame, g):
        return False
    fhat = [(_pack(e, weights), c) for e, c in normalize(f)[0].terms.items()]
    return _product(fhat, g, f.p) == {_pack(e, weights): c for e, c in product.items()}


@dataclass(frozen=True)
class Residue:
    """Division remainder of a (lifted) element modulo f.

    A Laurent input is lifted by the smallest monomial making it a
    polynomial, so ``value`` is canonical only up to that unit, while
    ``is_zero`` is exact.
    """

    value: LaurentPoly

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
    return Residue(_raw(g.field, g.dim, _reduced(dict(_lift(g).terms), m)))


def nf(g: LaurentPoly, f: LaurentPoly) -> LaurentPoly:
    """Shorthand for the remainder polynomial of reduce(g, f)."""
    return reduce(g, f).value


def residue_mul(a: LaurentPoly, b: LaurentPoly, f: LaurentPoly) -> LaurentPoly:
    """Product in the quotient ring, reduced immediately.

    Its term pairs are charged to the ``residue`` budget before the product
    is formed, and those of its division steps as they run.
    """
    m = _prepared(f)
    m.residue.charge(len(a.terms) * len(b.terms))
    g = a * b
    g._check_compatible(f)
    return _raw(f.field, f.dim, _reduced(dict(_lift(g).terms), m, charge=True))


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
    """Residue of the monomial u^exps: one non-negative entry per variable of f.

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
    if len(exps) != f.dim:  # checked on a miss only: no such key is ever kept
        raise ValueError(f"exponent vector {exps} has wrong dimension")
    for axis, x in enumerate(exps):
        neighbour = m.monomials.get(exps[:axis] + (x - 1,) + exps[axis + 1:]) if x else None
        if neighbour is not None:
            m.residue.charge(len(neighbour.terms))
            step = {e[:axis] + (e[axis] + 1,) + e[axis + 1:]: c for e, c in neighbour.terms.items()}
            result = _raw(f.field, f.dim, _reduced(step, m, charge=True))
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

