"""Sparse Laurent polynomials over a prime field F_p.

The prime is a plain int p < ``MAX_PRIME``, given to every constructor
(``LaurentPoly(p, d, terms)``, ``make_poly``, ``one``, ``monomial``) and
read back as ``.p``.  The constructor decides its primality once, by
Miller-Rabin, and every polynomial computed from it shares it unchecked.

A polynomial is a finite map from exponent vectors (tuples of ``dim``
integers, negative entries allowed) to coefficients in {1, ..., p-1}.  The
zero polynomial is the empty map.  ``dim`` and every coefficient given
must have the type ``int`` (no bool).  Every constructor canonicalizes --
coefficients are reduced mod p, zero terms dropped, duplicate exponents
summed -- so two polynomials are equal exactly when their term maps are
equal.

Exponents are plain Python ints, so dilated supports such as p^k * n stay
exact.  ``check_vectors`` is the package's one integer-vector test, run
wherever a vector enters: a tuple or list of ``int`` entries, no bool.

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
from typing import Iterable, Mapping, Sequence

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


class LaurentPoly:
    """Canonical sparse Laurent polynomial over F_p.

    ``p`` must be a prime int below ``MAX_PRIME``: a larger int is
    refused as too large, anything else as not a prime integer.  Do not
    mutate ``terms``; treat instances as values.  ``_modulus`` is
    left unset until ``quotient`` prepares the polynomial as a modulus.
    """

    __slots__ = ("p", "dim", "terms", "_modulus")

    def __init__(
        self,
        p: int,
        dim: int,
        terms: Mapping[ExponentVec, int] | Iterable[tuple[ExponentVec, int]] = (),
    ) -> None:
        if isinstance(p, int) and p >= MAX_PRIME:
            raise ValueError(f"modulus {reprlib.repr(p)} is too large: "
                             f"primality is decided for p < {MAX_PRIME}")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {reprlib.repr(p)} is not a prime integer")
        if type(dim) is not int:
            raise ValueError(f"dimension {reprlib.repr(dim)} is not an integer")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        for _, coeff in items:
            if type(coeff) is not int:
                raise ValueError(f"term coefficient {reprlib.repr(coeff)} is not an integer")
        check_vectors([e for e, _ in items], dim, "exponent vector")
        canonical: dict[ExponentVec, int] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            c = (canonical.get(exps, 0) + coeff) % p
            if c:
                canonical[exps] = c
            else:
                canonical.pop(exps, None)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("LaurentPoly is immutable")

    # -- basic queries ----------------------------------------------------

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
        return _raw(self.p, self.dim, merged)

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
        return _raw(self.p, self.dim, out)

    def shift(self, m: ExponentVec) -> "LaurentPoly":
        """Multiply by the monomial u^m."""
        check_vectors((m,), self.dim, "shift vector")
        return _raw(
            self.p,
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


def _raw(p: int, dim: int, canonical: dict[ExponentVec, int]) -> LaurentPoly:
    # internal constructor for a checked prime and a term map that is already canonical
    poly = object.__new__(LaurentPoly)
    object.__setattr__(poly, "p", p)
    object.__setattr__(poly, "dim", dim)
    object.__setattr__(poly, "terms", canonical)
    return poly


# -- public constructors and operations ------------------------------------


def make_poly(
    p: int,
    dim: int,
    terms: Iterable[tuple[Sequence[int], int]],
) -> LaurentPoly:
    """Build a canonical polynomial from (exponent vector, coefficient) pairs."""
    return LaurentPoly(p, dim, terms)


def one(p: int, dim: int) -> LaurentPoly:
    return LaurentPoly(p, dim, [((0,) * dim, 1)])


def monomial(p: int, dim: int, exps: Sequence[int], coeff: int = 1) -> LaurentPoly:
    return LaurentPoly(p, dim, [(exps, coeff)])


def check_vectors(vectors: Iterable[Sequence[int]], dim: int | None, what: str) -> None:
    """Raise ``ValueError`` at the first vector, named as ``what``, that is not ``dim`` ints.

    The package's one integer rule: a vector is a tuple or a list, and an
    entry counts only if its type is ``int``, so a bool, a float or a
    numpy integer does not.  ``dim`` None asks for the first vector's length.
    """
    for v in vectors:
        if not isinstance(v, (tuple, list)):
            raise ValueError(f"{what} {reprlib.repr(v)} is not a tuple or list")
        if dim is None:
            dim = len(v)
        if len(v) != dim:
            raise ValueError(f"{what} {reprlib.repr(v)} has wrong dimension: expected {dim}")
        for x in v:
            if type(x) is not int:
                raise ValueError(f"{what} {reprlib.repr(v)} has non-integer entries")


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
        g.p,
        g.dim,
        {tuple(scale * x for x in e): c for e, c in g.terms.items()},
    )
