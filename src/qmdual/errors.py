"""Shared exception types."""


class DegenerateQError(ValueError):
    """q in {-1, 0, 1}: the q-deformations degenerate or divide by zero."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation."""


class ResourceError(RuntimeError):
    """An enumeration or tensor basis exceeded its configured size cap."""
