"""Exception types shared across the package."""


class PolymixError(Exception):
    """Base class for package-specific errors."""


class ParseError(PolymixError):
    """Malformed input file, schema violation, option or setting."""


class TrivialQuotientError(PolymixError):
    """The modulus is zero or a monomial, so the quotient ring is trivial."""


class BudgetExceededError(PolymixError):
    """A computation would exceed the configured cell/enumeration budget."""


class InternalInconsistencyError(PolymixError):
    """A machine-checked identity that must always hold has failed.

    This is a bug detector: it is raised instead of silently returning a
    wrong certificate.
    """
