"""Hard budgets for the expensive operations, metered in one place.

A ``Meter`` holds one named budget's limit, read once when it is made,
and its use: ``charge(n)`` adds n and raises ``BudgetExceededError`` as
soon as the use passes the limit.  A path whose size is known up front
calls ``check``, a meter charged once, before the work starts; one whose
size grows as it runs keeps a meter and charges it as the work is done.
``POLYMIX_BUDGET`` (an integer) overrides every budget at once; when it
is unset the defaults below apply.  A value that is not a positive
integer is a ``ParseError``, raised by ``check_override`` (the CLI calls
it before every command) and when a meter is made.
"""

import os
from decimal import Decimal

from .errors import BudgetExceededError, ParseError

# name -> (default limit, what its use counts)
DEFAULTS = {
    "cells": (10_000, "cells of a constraint box: the window's bounding box for --method box"),
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


def check_override() -> None:
    """Raise ``ParseError`` unless ``POLYMIX_BUDGET`` is unset or a positive integer."""
    _override()


class Meter:
    """The use of the named budget against its limit; not locked, so threads
    that share a meter may lose an update."""

    __slots__ = ("name", "limit", "used")

    def __init__(self, name: str) -> None:
        default = DEFAULTS[name][0]
        self.name = name
        self.limit = _override() or default
        self.used = 0

    def charge(self, n: int) -> None:
        """Add n to the use, raising ``BudgetExceededError`` once it passes the limit."""
        self.used += n
        if self.used > self.limit:
            # Decimal prints an integer of any length; str(int) refuses past 4,300 digits
            raise BudgetExceededError(f"{self.name} budget: {Decimal(self.used)} "
                                      f"{DEFAULTS[self.name][1]}, limit {self.limit}")


def check(name: str, used: int) -> None:
    """Raise ``BudgetExceededError`` when ``used`` exceeds the named budget's limit."""
    Meter(name).charge(used)
