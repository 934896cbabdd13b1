"""Hard budgets for the expensive operations.

``POLYMIX_BUDGET`` (an integer) overrides every budget at once; when it is
unset the per-operation defaults below apply.  A value that is not a
positive integer is a ``ParseError``, read when a budget is first needed.
"""

import os

from .errors import ParseError

DEFAULT_CELL_BUDGET = 10_000        # cells of a constraint box
DEFAULT_ENUM_BUDGET = 2 ** 22       # configurations enumerated brute-force
DEFAULT_SEARCH_BUDGET = 10 ** 7     # (shape, coefficient) candidates searched

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


def cell_budget() -> int:
    return _override() or DEFAULT_CELL_BUDGET


def enum_budget() -> int:
    return _override() or DEFAULT_ENUM_BUDGET


def search_budget() -> int:
    return _override() or DEFAULT_SEARCH_BUDGET
