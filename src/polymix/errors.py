"""Exception types shared across the package."""


class PolymixError(Exception):
    """Base class for package-specific errors."""


class ParseError(PolymixError):
    """Malformed input file, schema violation, option or setting."""


class TrivialQuotientError(PolymixError, ValueError):
    """The modulus is zero or a monomial, so the quotient ring is trivial."""


class BudgetExceededError(PolymixError):
    """A computation would exceed one of the budgets of ``budgets``.

    Raised by ``budgets.check``: before the work starts where the size is
    known up front, and mid-work where a running count passes the limit
    (the hull's tests, the detector's placements, the residue term pairs).
    The message names the budget, its use and its limit.
    """


class InternalInconsistencyError(PolymixError):
    """A machine-checked identity that must always hold has failed.

    This is a bug detector: it is raised instead of silently returning a
    wrong certificate.
    """
