"""Sparse Laurent polynomials over a prime field F_p.

A polynomial is a finite map from exponent vectors (tuples of ``dim``
integers, negative entries allowed) to coefficients in {1, ..., p-1}.  The
zero polynomial is the empty map.  Every constructor canonicalizes --
coefficients are reduced mod p, zero terms dropped, duplicate exponents
summed -- so two polynomials are equal exactly when their term maps are
equal.

Exponents are plain Python ints; dilated supports such as p^k * n for
k around 12 stay exact without any overflow concern.

Values are immutable after construction and all operations are pure
functions, so they are safe to share between threads.  The one exception
is a private slot that ``quotient`` fills the first time a polynomial is
used as a modulus (its division data and the residues computed against
it); it never changes ``==`` or the terms.  Two threads filling it at
once each compute the same data and one copy wins, so sharing stays safe.
"""

from __future__ import annotations

import operator
import reprlib
from dataclasses import dataclass
from typing import Iterable, Mapping

ExponentVec = tuple[int, ...]


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the first 13 primes as bases has no strong pseudoprime below this
MAX_PRIME = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for p < MAX_PRIME."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p with p < MAX_PRIME; primality is verified by Miller-Rabin."""

    p: int

    def __post_init__(self) -> None:
        if isinstance(self.p, int) and self.p >= MAX_PRIME:
            raise ValueError(f"modulus {reprlib.repr(self.p)} is too large: "
                             f"primality is decided for p < {MAX_PRIME}")
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise ValueError(f"modulus {reprlib.repr(self.p)} is not a prime integer")


def _as_field(field: FieldSpec | int) -> FieldSpec:
    return field if isinstance(field, FieldSpec) else FieldSpec(field)


class LaurentPoly:
    """Canonical sparse Laurent polynomial over F_p.

    Do not mutate ``terms``; treat instances as values.  ``_modulus`` is
    left unset until ``quotient`` prepares the polynomial as a modulus.
    """

    __slots__ = ("field", "dim", "terms", "_modulus")

    def __init__(
        self,
        field: FieldSpec | int,
        dim: int,
        terms: Mapping[ExponentVec, int] | Iterable[tuple[ExponentVec, int]] = (),
    ) -> None:
        field = _as_field(field)
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        p = field.p
        canonical: dict[ExponentVec, int] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != dim:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {dim}"
                )
            if not all(isinstance(e, int) for e in exps):
                raise ValueError(f"exponent vector {exps} has non-integer entries")
            c = (canonical.get(exps, 0) + coeff) % p
            if c:
                canonical[exps] = c
            else:
                canonical.pop(exps, None)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("LaurentPoly is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support(self) -> frozenset[ExponentVec]:
        return frozenset(self.terms)

    def min_exponents(self) -> ExponentVec:
        """Componentwise minimum exponent; undefined (error) on zero."""
        if self.is_zero:
            raise ValueError("zero polynomial has no exponents")
        return tuple(min(e[i] for e in self.terms) for i in range(self.dim))

    def max_exponents(self) -> ExponentVec:
        if self.is_zero:
            raise ValueError("zero polynomial has no exponents")
        return tuple(max(e[i] for e in self.terms) for i in range(self.dim))

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "LaurentPoly") -> None:
        if self.p != other.p:
            raise ValueError(f"field mismatch: F_{self.p} vs F_{other.p}")
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        merged = dict(self.terms)
        p = self.p
        for e, c in other.terms.items():
            nc = (merged.get(e, 0) + c) % p
            if nc:
                merged[e] = nc
            else:
                merged.pop(e, None)
        return _raw(self.field, self.dim, merged)

    def __neg__(self) -> "LaurentPoly":
        p = self.p
        return _raw(self.field, self.dim, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        p = self.p
        plus = operator.add
        out: dict[ExponentVec, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(plus, e1, e2))
                nc = (out.get(e, 0) + c1 * c2) % p
                if nc:
                    out[e] = nc
                else:
                    out.pop(e, None)
        return _raw(self.field, self.dim, out)

    def scale(self, c: int) -> "LaurentPoly":
        """Multiply by the scalar c."""
        c %= self.p
        if c == 0:
            return _raw(self.field, self.dim, {})
        return _raw(self.field, self.dim, {e: (c * v) % self.p for e, v in self.terms.items()})

    def shift(self, m: ExponentVec) -> "LaurentPoly":
        """Multiply by the monomial u^m."""
        if len(m) != self.dim:
            raise ValueError(f"shift vector {m} has wrong length")
        return _raw(
            self.field,
            self.dim,
            {tuple(a + b for a, b in zip(e, m)): c for e, c in self.terms.items()},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.p == other.p and self.dim == other.dim and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]  # mutable-looking container

    def __repr__(self) -> str:
        if self.is_zero:
            return f"<0 over F_{self.p}>"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(f"u{i + 1}^{x}" for i, x in enumerate(e) if x != 0)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return f"<{' + '.join(parts)} over F_{self.p}>"


def _raw(field: FieldSpec, dim: int, canonical: dict[ExponentVec, int]) -> LaurentPoly:
    # internal constructor for term maps that are already canonical
    poly = object.__new__(LaurentPoly)
    object.__setattr__(poly, "field", field)
    object.__setattr__(poly, "dim", dim)
    object.__setattr__(poly, "terms", canonical)
    return poly


# -- public constructors and operations ------------------------------------


def make_poly(
    field: FieldSpec | int,
    dim: int,
    terms: Iterable[tuple[Iterable[int], int]],
) -> LaurentPoly:
    """Build a canonical polynomial from (exponent vector, coefficient) pairs."""
    return LaurentPoly(field, dim, [(tuple(e), c) for e, c in terms])


def zero(field: FieldSpec | int, dim: int) -> LaurentPoly:
    return LaurentPoly(field, dim)


def one(field: FieldSpec | int, dim: int) -> LaurentPoly:
    return LaurentPoly(field, dim, [((0,) * dim, 1)])


def monomial(field: FieldSpec | int, dim: int, exps: Iterable[int], coeff: int = 1) -> LaurentPoly:
    return LaurentPoly(field, dim, [(tuple(exps), coeff)])


def add(g: LaurentPoly, h: LaurentPoly) -> LaurentPoly:
    return g + h


def mul(g: LaurentPoly, h: LaurentPoly) -> LaurentPoly:
    return g * h


def support(g: LaurentPoly) -> frozenset[ExponentVec]:
    """Exponent vectors carrying a nonzero coefficient."""
    return g.support()


def frobenius_power(g: LaurentPoly, k: int) -> LaurentPoly:
    """The p^k-th power of g.

    In characteristic p this is exact term surgery: exponents dilate by
    p^k while coefficients are fixed (c^p = c in F_p), so the result has
    the same number of terms as g.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return g
    scale = g.p ** k
    return _raw(
        g.field,
        g.dim,
        {tuple(scale * x for x in e): c for e, c in g.terms.items()},
    )


def poly_pow(g: LaurentPoly, n: int) -> LaurentPoly:
    """g**n by repeated squaring (n >= 0)."""
    if n < 0:
        raise ValueError("negative powers are not defined for general polynomials")
    result = one(g.field, g.dim)
    base = g
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


# -- canonical JSON format ---------------------------------------------------
#
#   {"p": <int>, "d": <int>, "terms": [{"e": [<int>, ...], "c": <int>}, ...]}


def is_json_int(x) -> bool:
    """Is x a JSON integer?  ``true`` and ``false`` load as bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def to_json_dict(g: LaurentPoly) -> dict:
    return {
        "p": g.p,
        "d": g.dim,
        "terms": [{"e": list(e), "c": g.terms[e]} for e in sorted(g.terms)],
    }


def from_json_dict(data: dict) -> LaurentPoly:
    if not isinstance(data, dict):
        raise ValueError("polynomial JSON must be an object")
    missing = {"p", "d", "terms"} - set(data)
    if missing:
        raise ValueError(f"polynomial JSON missing keys: {sorted(missing)}")
    p, d, terms = data["p"], data["d"], data["terms"]
    if not is_json_int(p) or not is_json_int(d):
        raise ValueError("'p' and 'd' must be integers")
    if not isinstance(terms, list):
        raise ValueError("'terms' must be a list")
    pairs = []
    for t in terms:
        if not isinstance(t, dict) or "e" not in t or "c" not in t:
            raise ValueError(f"malformed term {reprlib.repr(t)}")
        e, c = t["e"], t["c"]
        if not isinstance(e, list) or len(e) != d:
            raise ValueError(f"term exponent {reprlib.repr(e)} does not have length d={d}")
        if not all(map(is_json_int, e)) or not is_json_int(c):
            raise ValueError(f"term {reprlib.repr(t)} has non-integer entries")
        pairs.append((tuple(e), c))
    return make_poly(FieldSpec(p), d, pairs)
