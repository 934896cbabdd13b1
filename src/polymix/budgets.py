"""Hard budgets for the expensive operations, checked in one place.

Each expensive path calls ``check`` with its budget's name and the size
it is about to use, before doing the work.  ``check(name, 0)`` passes
and returns the limit.  Where the size is not known up front (the
detector's placements, the hull's tests and normals, a division's term
pairs) the path reads the limit that way once, compares its running
count against it, and calls ``check`` again only once the count passes
it, which raises.  The search reads the limit once too, to stop counting
its candidates just past it, and ``quotient`` reads the ``residue`` limit
when f is first prepared as a modulus.  ``POLYMIX_BUDGET`` (an integer) overrides
every budget at once; when it is unset the defaults below apply.  A
value that is not a positive integer is a ``ParseError``, read when a
budget is first checked.
"""

import os
from decimal import Decimal

from .errors import BudgetExceededError, ParseError

# name -> (default limit, what its use counts)
DEFAULTS = {
    "cells": (10_000, "cells of a constraint box"),
    "enumeration": (2 ** 22, "configurations enumerated brute-force"),
    "search": (10 ** 7, "(shape, coefficient) candidates"),
    "division": (10 ** 6, "lattice monomials of the box holding f(u^p)"),
    "detector": (10 ** 4, "placements tried over every cap"),
    "hull": (10 ** 5, "visibility tests (assignment and walk), plus k per facet normal, "
                      "of a k-dimensional hull"),
    "redraw": (10 ** 6, "triangle-scan neighbour tests or rank-system cells of a redrawing"),
    "experiment": (10 ** 3, "rows over k: experiment --k-range, or certify/analyze 0..--max-k"),
    "residue": (10 ** 6, "term pairs multiplied for one modulus's monomial residues"),
}

_ENV_VAR = "POLYMIX_BUDGET"


def _override() -> int | None:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParseError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ParseError(f"{_ENV_VAR} must be positive, got {value}")
    return value


def check(name: str, used: int) -> int:
    """Return the named budget's limit, raising ``BudgetExceededError`` when ``used`` exceeds it."""
    default, counts = DEFAULTS[name]
    limit = _override() or default
    if used > limit:
        # Decimal prints an integer of any length; str(int) refuses past 4,300 digits
        raise BudgetExceededError(f"{name} budget: {Decimal(used)} {counts}, limit {limit}")
    return limit
