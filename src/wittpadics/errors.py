"""Exception types shared across the package."""


class PadicError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(PadicError):
    """p failed the primality check, or exceeds the supported 64-bit bound."""


class NotAUnit(PadicError):
    """Operand is divisible by p where a unit is required."""


class InvalidDegree(PadicError):
    """Root degree is divisible by p where p must not divide it."""


class ExactDivisionFailure(PadicError):
    """A division that must be exact left a remainder."""


class MismatchedRing(PadicError):
    """Operands live over different primes or incompatible shapes."""


class DomainError(PadicError):
    """Input lies outside the domain of the log or exp series."""


class ZeroInput(PadicError):
    """The exact zero was passed where a nonzero value is required."""


class RootCondition(PadicError):
    """A condition for an m-th root fails, as roots.root_failure reports it: reason and digit_index as in RootCheck."""

    def __init__(self, message: str, reason, digit_index: int | None = None):
        super().__init__(message)
        self.reason = reason
        self.digit_index = digit_index


class ValuationCondition(RootCondition):
    """The root degree does not divide the valuation: the RootCondition for VALUATION_NOT_DIVISIBLE."""


class PrecisionTooLow(PadicError):
    """Not enough digits of precision to carry out the operation."""


class WrongPrime(PadicError):
    """Operation is only defined for a different prime (p = 2 vs p odd)."""


class SelfCheckFailed(PadicError, AssertionError):
    """An internal consistency check failed: a bug, not a bad input."""
