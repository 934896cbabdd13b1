"""Exception types shared across the package."""


class PolymixError(Exception):
    """Base class for package-specific errors."""


class ParseError(PolymixError):
    """Malformed input file, schema violation, option or setting."""


class TrivialQuotientError(PolymixError):
    """The modulus is zero or a monomial, so the quotient ring is trivial."""


class BudgetExceededError(PolymixError):
    """A computation would exceed one of the budgets of ``budgets``.

    Raised only by ``budgets.check``, before the work starts; the message
    names the budget, its use and its limit.
    """


class InternalInconsistencyError(PolymixError):
    """A machine-checked identity that must always hold has failed.

    This is a bug detector: it is raised instead of silently returning a
    wrong certificate.
    """
