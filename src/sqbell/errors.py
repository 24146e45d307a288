"""Exception taxonomy shared across the package."""


class GaussPolyError(Exception):
    """Base class for errors raised by the polynomial-Gaussian algebra."""


class DimensionMismatchError(GaussPolyError):
    """Operands do not share the same variable space."""


class DegreeCapError(GaussPolyError):
    """A polynomial exceeded the hard per-term degree cap."""


class UnsupportedEvaluationError(GaussPolyError):
    """Pointwise evaluation requested on a function carrying delta factors."""


class DivergentIntegralError(GaussPolyError):
    """The quadratic form on the integrated coordinates is not positive definite."""

    def __init__(self, message: str, term_index: int | None = None):
        super().__init__(message)
        self.term_index = term_index


class PhysicalityError(Exception):
    """A state or integrand violates a physicality requirement."""


class QuadratureConvergenceError(Exception):
    """Adaptive cubature reached its subdivision cap above the requested tolerance."""

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class DegeneratePostselectionError(Exception):
    """Conditioning succeeded with (numerically) zero probability."""


class ZeroNormStateError(Exception):
    """A state construction produced the zero vector (e.g. subtracting from vacuum)."""


class CutoffTooSmallError(Exception):
    """A truncated-space operation leaked more norm than the tolerance allows."""

    def __init__(self, message: str, deficit: float):
        super().__init__(message)
        self.deficit = deficit
