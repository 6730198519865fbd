"""Exception types shared across the package."""


class SuperoscError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SuperoscError, ValueError):
    """Raised for malformed superoscillation domains (overlap, range, zero measure)."""


class InfeasibleConstraints(SuperoscError):
    """Raised when a redundant constraint contradicts the ones it depends on."""


class RankDeficientConstraints(SuperoscError):
    """Raised when frame construction meets linearly dependent constraint rows.

    Rows only nearly dependent at the context's rank tolerance separate at
    higher precision; truly redundant rows are dropped by reduce_rank.
    """


class SolverFailure(SuperoscError):
    """Raised when the spectrum solver cannot certify its result.

    Carries a ``diagnostics`` dict (the offending eigenvalues, or the largest
    off-diagonal entry a stalled Jacobi solve left) so failures can be
    reported rather than silently mended.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class PrecisionWarning(UserWarning):
    """Warns that computed quantities are near the trust floor of the context."""
