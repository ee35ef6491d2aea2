"""Typed errors shared across the package."""


class PpavError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PpavError):
    """Input is outside the mathematical domain of the operation."""


class RankError(PpavError):
    """Matrix or generator set does not have the required rank."""


class NotWeilShape(DomainError):
    """Polynomial violates the functional equation x^2n f(q/x) = q^n f(x)."""


class UnsupportedDegree(DomainError):
    """Exact treatment is only implemented up to quartic polynomials."""


class FactorError(PpavError):
    """Factorization gave up; carries the partial factorization found so far
    and the cofactor it could not split."""

    def __init__(self, message, partial=None, cofactor=None):
        super().__init__(message)
        self.partial = partial or {}
        self.cofactor = cofactor


class SearchLimitError(PpavError):
    """A bounded search exhausted its limit without finding a witness."""


class InternalError(PpavError):
    """Invariant that should be unreachable was violated."""
