"""Exception types shared across the package.

Plain ``ValueError`` is raised for malformed arguments (wrong shapes, bad mode
counts).  The classes below mark failures with domain meaning, so callers can
react to them individually: the distillation pipeline reports them as stage
failures (PipelineStageError, naming the stage), and the command line exits
with its stage-failure code on them.
"""


class DistillError(Exception):
    """Base class for domain-level failures."""


class PreconditionError(DistillError):
    """Input violates a documented precondition (e.g. NPT required, PPT given)."""


class NumericsError(DistillError):
    """Numerical guard tripped: ill-conditioning, inconsistent invariants,
    or a quantity that should be real/positive came out otherwise."""


class DegeneracyError(NumericsError):
    """The minimal eigenvector of gamma - i*Jtilde is not a usable witness:
    its form is not negative or a symplectic skew product is below the floor."""


class ConcentrationError(NumericsError):
    """Mode concentration failed: witness support leaked beyond the first
    mode pair, or the reduced two-mode matrix came out not positive definite
    or PPT."""


class MeasurementError(NumericsError):
    """Homodyne conditioning attempted on a degenerate quadrature."""
