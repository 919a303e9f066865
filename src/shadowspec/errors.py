"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: input/validation problems
exit 2, numerical failures exit 3, decay certificate failures exit 4.
"""

__all__ = [
    "ShadowspecError",
    "DimensionMismatchError",
    "NotUnimodularError",
    "SingularOperatorError",
    "ContourThroughSpectrumError",
    "ConvergenceError",
    "DecayCertificateError",
]


class ShadowspecError(Exception):
    """Base class for package errors."""


class DimensionMismatchError(ShadowspecError, ValueError):
    """Operator applied to a vector of the wrong shape or kind."""


class NotUnimodularError(ShadowspecError, ValueError):
    """A rotation factor was not on the unit circle."""


class SingularOperatorError(ShadowspecError, ArithmeticError):
    """Operator is singular (or numerically indistinguishable from singular)."""


class ContourThroughSpectrumError(ShadowspecError, ArithmeticError):
    """Quadrature contour passes through (or hugs) the spectrum."""


class ConvergenceError(ShadowspecError, RuntimeError):
    """An iterative numerical routine failed to converge."""


class DecayCertificateError(ShadowspecError, RuntimeError):
    """Power-norm decay does not certify a valid splitting: some rate >= 1, or
    the power envelope is not bounded past the decay order."""

    def __init__(self, message, r_plus=None, r_minus=None):
        super().__init__(message)
        self.r_plus = r_plus
        self.r_minus = r_minus
