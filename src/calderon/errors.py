"""Exception types shared across the package."""


class CalderonError(Exception):
    """Base class for all library errors.  A per-mode error carries
    ``index``, its row in the caller's mode stack, and ``mode``, that
    row's ``symbols.mode_key``; ``symbols.mode_error`` sets both."""

    def __init__(self, message, index=None, mode=None):
        super().__init__(message)
        self.index = index
        self.mode = mode


class SpecError(CalderonError):
    """Operator specification violates a structural invariant."""


class ParseError(CalderonError):
    """An operator-spec document could not be parsed."""


class DefectMode(CalderonError):
    """A characteristic root sits on the real axis, so decaying and
    growing solutions do not split the Cauchy-data space."""

    def __init__(self, message, index=None, mode=None, roots=None):
        super().__init__(message, index, mode)
        self.roots = roots


class SignIterationStalled(DefectMode):
    """The matrix sign iteration did not converge for one matrix of a
    stack, whose spectrum is too close to the imaginary axis."""


class ContourNotConverged(CalderonError):
    """Node doubling exceeded the node budget without convergence."""


class RoutesDisagree(CalderonError):
    """The residue and quadrature routes of the layer blocks disagree."""


class EigenvalueOnContour(CalderonError):
    """An eigenvalue lies on (or too close to) the integration contour."""


class EigenvalueOnCut(CalderonError):
    """An eigenvalue lies on the branch cut, or the spectrum cannot be
    separated from it by a circle."""


class IllConditionedFrame(CalderonError):
    """The weighted Gram matrix of a frame is numerically singular."""


class CutoffMismatch(CalderonError):
    """Two Grassmannian points were built with incompatible conventions."""


class ThresholdAmbiguous(CalderonError):
    """A singular value falls inside the forbidden decade around the
    kernel threshold, so kernel dimensions cannot be trusted."""


class NoChiralStructure(CalderonError):
    """The operator carries no usable L/R block marking."""


class InsufficientData(CalderonError):
    """Not enough singular values for the requested analysis."""
