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
with a ``residue`` meter and the residue tables.  Every later call with
the same f (one query holds one f) reuses them; nothing is kept at
module level, so the tables go when f does.

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
- Width: the largest total degree D asked for, or f's own when larger,
  and a guard bit, rounded up to a multiple of 8.  A division step
  replaces a term by smaller ones, so no term, quotient term, or quotient
  term times a term of f passes degree D, and no field overflows.
- Precondition: every exponent is non-negative.  ``reduce`` meets it
  by a monomial shift, the residues by their checked exponents, and the
  certificate by normalization.
- Tables: one frame per modulus, picked by ``_Modulus.tables`` alone.
  f keeps the widest frame asked for so far, with the axis squares
  u_i^(2^j) and the monomial residues packed in it; a wider request
  repacks them.
- Keys leave this module in one place, ``window_residues``, as opaque
  ints whose only use is their order and one key above them all; the
  other callers get polynomials, unpacked once.

``window_residues`` (for ``measure``) and ``monomial_residue`` (for
``mixing``) derive every monomial residue: from a kept neighbour
u^(e - e_i) in one short division when they can, by square-and-multiply
on the axis squares otherwise, and neither builds an exponent tuple.
The remainder is unique, so a residue from a table, a neighbour or a
fresh division is the same polynomial.  The ``residue`` budget bounds
the term pairs multiplied for one modulus's tables, in its products and
neighbour steps and in the division steps that reduce them.  Its meter
lives on the polynomial object and is never reset: a library caller who
reuses one f across queries shares one count among them, while the
command line loads f afresh for each query.
"""

from __future__ import annotations

import heapq
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import budgets
from .errors import TrivialQuotientError
from .laurent import ExponentVec, LaurentPoly, _raw, check_vectors

__all__ = [
    "Residue",
    "check_modulus",
    "divides_exactly",
    "grlex_key",
    "leading_term",
    "normalize",
    "reduce",
    "monomial_residue",
    "window_residues",
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


def _repack(key: int, old: _Frame, new: _Frame) -> int:  # same exponents, wider frame
    return sum((key >> s & old.mask) * w for s, w in zip(old.shifts, new.weights))


class _Modulus:
    """Division data of f, computed once, and the residues shared against it.

    Stored in the polynomial's ``_modulus`` slot by ``_prepared``, so it
    lives exactly as long as f: every query that keeps using the same f
    reuses its axis squares and monomial residues.
    """

    __slots__ = ("p", "lt", "lt_inv", "tail", "packed", "residue")

    def __init__(self, f: LaurentPoly) -> None:
        check_modulus(f)
        fhat, _ = normalize(f)
        p = self.p = f.p
        self.lt, lt_c = leading_term(fhat)
        self.lt_inv = pow(lt_c, p - 2, p) if p > 2 else 1
        self.tail = [(e, c) for e, c in fhat.terms.items() if e != self.lt]
        # the widest frame, {(axis, j): residue of u_axis^(2^j)}, {key of e: residue of u^e}
        self.packed: tuple[_Frame, dict, dict] | None = None
        self.residue = budgets.Meter("residue")

    def tables(self, degree: int) -> tuple[_Frame, dict, dict]:
        """f's packed frame, wide enough for total degree ``degree`` and f, and its tables.

        The one place a field width is picked: f keeps the widest frame
        asked for so far.  A wider request repacks a snapshot of the
        tables into a new frame and replaces the state in one assignment,
        so a thread still filling the old tables keeps a consistent set.
        """
        packed = self.packed
        width = _width(max(degree, sum(self.lt)))
        if packed is None or packed[0].mask.bit_length() < width:
            dim = len(self.lt)
            weights = _weights(dim, width)
            new = _Frame(weights, range(0, dim * width, width), (1 << width) - 1,
                         sum(1 << (i * width + width - 1) for i in range(dim + 1)),
                         _pack(self.lt, weights),
                         tuple((_pack(e, weights), c) for e, c in self.tail))
            old, squares, monomials = packed or (None, {}, {})
            packed = self.packed = (
                new,
                {i: {_repack(k, old, new): c for k, c in r.items()}
                 for i, r in list(squares.items())},
                {_repack(e, old, new): {_repack(k, old, new): c for k, c in r.items()}
                 for e, r in list(monomials.items())})
        return packed


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


def _product(a: Iterable[tuple[int, int]], b: dict[int, int], p: int) -> dict[int, int]:
    """Product of two packed polynomials over F_p, term pairs summed in full."""
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a:
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: r for k, c in out.items() if (r := c % p)}


def _multiply(a: dict[int, int], b: dict[int, int], m: _Modulus, frame: _Frame) -> dict[int, int]:
    """Product in the quotient ring, reduced at once; charges its term pairs and steps."""
    m.residue.charge(len(a) * len(b))
    return _divide(_product(a.items(), b, m.p), m, frame, charge=True)


def _unpacked(f: LaurentPoly, r: dict[int, int], frame: _Frame) -> LaurentPoly:
    shifts, mask = frame.shifts, frame.mask
    return _raw(f.p, f.dim, {tuple([k >> s & mask for s in shifts]): c for k, c in r.items()})


def divides_exactly(dividend: Mapping[ExponentVec, int], f: LaurentPoly,
                    product: Mapping[ExponentVec, int]) -> bool:
    """Whether fhat divides ``dividend`` with quotient g such that fhat g is ``product``.

    fhat is f normalized.  Both term maps have non-negative exponents.
    The division runs in f's packed frame, wide enough for the largest
    total degree of the dividend and of ``product``; the quotient stays
    packed, and fhat, read off f's own terms, times the quotient is
    compared with ``product`` in the same frame.  True exactly when the
    remainder is zero and the product matches.
    """
    m = _prepared(f)
    frame = m.tables(max(map(sum, (*dividend, *product)), default=0))[0]
    weights = frame.weights
    g: dict[int, int] = {}
    if _divide({_pack(e, weights): c for e, c in dividend.items()}, m, frame, g):
        return False
    fhat = [(_pack(e, weights), c) for e, c in normalize(f)[0].terms.items()]
    return _product(fhat, g, f.p) == {_pack(e, weights): c for e, c in product.items()}


class Residue(NamedTuple):
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
    lift = [-min(0, x) for x in g.min_exponents()] if g.terms else ()
    if any(lift):  # clear negative exponents only
        g = g.shift(tuple(lift))
    frame = m.tables(max(map(sum, g.terms), default=0))[0]
    work = {_pack(e, frame.weights): c for e, c in g.terms.items()}
    return Residue(_unpacked(f, _divide(work, m, frame), frame))


def power_residue(g: LaurentPoly, n: int, f: LaurentPoly) -> LaurentPoly:
    """Residue of g**n by square-and-multiply in the quotient ring, each step reduced.

    The products run packed in f's frame, wide enough for the last
    square: 2n times the total degree of g's residue.
    """
    if n < 0:
        raise ValueError("negative powers are not defined")
    m = _prepared(f)
    base = reduce(g, f).value
    frame = m.tables(2 * n * max(map(sum, base.terms), default=0))[0]
    base = {_pack(e, frame.weights): c for e, c in base.terms.items()}
    result = {0: 1}
    while n:
        if n & 1:
            result = _multiply(result, base, m, frame)
        base = _multiply(base, base, m, frame)
        n >>= 1
    return _unpacked(f, result, frame)


def _walk(points: Sequence[ExponentVec], f: LaurentPoly) -> tuple[list[dict[int, int]], _Frame]:
    """Packed residues of u^w for the points w, in order, and the frame of their keys.

    Each point has one non-negative entry per variable of f.  A residue
    not kept yet is u_i times a kept neighbour u^(w - e_i), ``weights[i]``
    added to each of its keys, divided once; or else the product of the
    axis squares u_i^(2^j) picked by the bits of each exponent.
    """
    check_vectors(points, f.dim, "exponent vector")
    for w in points:
        if min(w) < 0:
            raise ValueError(f"exponents must be non-negative, got {w}")
    m = _prepared(f)
    frame, squares, monomials = m.tables(max(map(sum, points), default=0))
    weights = frame.weights
    residues = []
    for w in points:
        key = sum(map(mul, w, weights))
        result = monomials.get(key)
        if result is None:
            for axis, x in enumerate(w):
                neighbour = monomials.get(key - weights[axis]) if x else None
                if neighbour is not None:
                    m.residue.charge(len(neighbour))
                    step = weights[axis]
                    result = _divide({k + step: c for k, c in neighbour.items()}, m, frame,
                                     charge=True)
                    break
            else:
                result = {0: 1}
                for axis, e in enumerate(w):
                    square = None
                    for j in range(e.bit_length()):  # u_axis^(2^j), the square of the last
                        half, square = square, squares.get((axis, j))
                        if square is None:
                            square = squares[axis, j] = (
                                _multiply(half, half, m, frame) if j
                                else _divide({weights[axis]: 1}, m, frame))
                        if e >> j & 1:
                            result = _multiply(result, square, m, frame)
            monomials[key] = result
        residues.append(result)
    return residues, frame


def monomial_residue(exps: ExponentVec, f: LaurentPoly) -> LaurentPoly:
    """Residue of the monomial u^exps: one non-negative entry per variable of f.

    Results are kept with f, so a walk over a window or a box in
    lexicographic order divides once per point, and dilated exponents
    like 2^12 cost a handful of quotient multiplications.
    """
    (residue,), frame = _walk([exps], f)
    return _unpacked(f, residue, frame)


def window_residues(points: Sequence[ExponentVec], f: LaurentPoly) -> tuple[list[dict], int]:
    """Packed residues of u^w for the window points w, in order, and a key above them all.

    The keys are opaque ints whose order is the monomial order.  The
    residues are the kept ones, so a caller copies one before changing it.
    """
    residues, frame = _walk(points, f)
    return residues, 1 << (f.dim + 1) * frame.mask.bit_length()
