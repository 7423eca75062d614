"""Shared exception types."""


class DegenerateQError(ValueError):
    """q in {-1, 0, 1}: the q-deformations degenerate or divide by zero."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation."""

