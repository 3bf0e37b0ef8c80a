"""Domain errors shared across the package.

Every error carries a machine-readable ``details`` dict so the CLI can emit
structured error objects; the class name is the stable error identifier.
"""

from __future__ import annotations


class DomainError(Exception):
    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    @property
    def name(self) -> str:
        return type(self).__name__


# linalg
class DimensionMismatch(DomainError):
    pass


class NonHermitian(DomainError):
    pass


# graphs
class BadOrder(DomainError):
    pass


class NotPrime(DomainError):
    pass


class TooLarge(DomainError):
    pass


class SizeMismatch(DomainError):
    pass


# families
class DegenerateParameter(DomainError):
    pass


class BadT(DomainError):
    pass


class BadPrime(DomainError):
    pass


# upb
class EmptyFamily(DomainError):
    pass


class NotOrthogonalSet(DomainError):
    pass


class Inconclusive(DomainError):
    pass


class NotUpb(DomainError):
    pass


# entanglement
class BadSize(DomainError):
    pass


class BadDecomposition(DomainError):
    pass
