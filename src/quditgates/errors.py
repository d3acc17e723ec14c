"""Exception types shared across the package."""


class QuditGatesError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(QuditGatesError):
    """Operands have incompatible shapes."""


class NotInvertible(QuditGatesError):
    """Requested modular inverse does not exist."""


class NotUnitary(QuditGatesError):
    """Matrix is not unitary within tolerance."""


class NotDiagonal(QuditGatesError):
    """Matrix has off-diagonal weight above tolerance."""


class UnsupportedDim(QuditGatesError):
    """Dimension is outside the supported prime set."""


class ZeroLabel(QuditGatesError):
    """Phase-point label (0|0) does not define a measurement basis."""


class NotTracePreserving(QuditGatesError):
    """Weighted Kraus terms do not sum to the identity."""


class NotEigenvector(QuditGatesError):
    """State fails the eigenvector residual check."""


class ConvergenceFailure(QuditGatesError):
    """Iterative fit or decomposition left a residual above tolerance."""


class NumericalInstability(QuditGatesError):
    """Linear-program pivoting stalled or exceeded its iteration budget."""


class BadLength(QuditGatesError):
    """Facet index tuple has the wrong number of entries."""


class MissingConfig(QuditGatesError):
    """A required configuration key is absent."""


class SymmetryViolation(QuditGatesError):
    """Operators fail a symmetry that a reduced computation relies on."""
