"""Exception types shared across the engines."""


class GeometryError(ValueError):
    """Interval layout violates 0 < L < a < b or a cutoff constraint."""


class SingularMatrixError(ValueError):
    """A linear solve hit a (numerically) singular matrix."""


class DomainError(ValueError):
    """Input outside the validity domain of a closed-form expression."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class ConvergenceError(RuntimeError):
    """An iterative eigensolver used up its step budget before converging."""


class ContinuationError(RuntimeError):
    """Rational continuation in the replica index is unstable."""


class RegimeWarning(UserWarning):
    """Parameters leave the regime a formula or expansion assumes."""
