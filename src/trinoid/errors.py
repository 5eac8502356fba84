"""Exception and warning types shared across the package.

Each error type carries the exit code the command line returns for it:
``TrinoidError`` and its direct subclasses are invalid input (2), and a
``NumericalFailure`` is a computation that could not meet its gates on a
valid input (3).
"""


class TrinoidError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 2


class NumericalFailure(TrinoidError):
    """Base class for the failures of a computation on a valid input."""

    exit_code = 3


class NonSL2Input(NumericalFailure):
    """A matrix expected to lie in SL(2, C) has determinant away from 1."""


class ExcludedAngleIsPi(TrinoidError):
    """A half-angle equals pi, which the catenoidal setup excludes."""


class DegenerateHanbetu(TrinoidError):
    """The umbilic discriminant vanishes, so the two umbilics coincide."""


class ZeroCoefficient(TrinoidError):
    """A Hopf coefficient c_j is zero, so the sign pattern is undefined."""


class BadEdge(TrinoidError):
    """An edge or vertex index passed to a surgery operation is invalid."""


class BigonRequiresAcute(TrinoidError):
    """Bigon attachment needs the modified half-angle to satisfy B < pi."""


class SingularPathPoint(NumericalFailure):
    """An integration path passes within clearance of a singular point."""


class StepUnderflow(NumericalFailure):
    """A transport step could not be resolved near a singular point.

    Raised when adaptive step control shrinks the step below the useful
    minimum, when collocation bisection reaches its depth cap or meets a
    singular coefficient, and for a tolerance below the unit roundoff.
    """


class NotUnitarizable(NumericalFailure):
    """No conjugation of the kind its moduli class fixes makes the rep unitary.

    The invariant form is not positive definite, or the rep contradicts its
    class (a ReducibleC2 generator away from +-I, no common eigenbasis).
    """


class ResonantReducible(NotUnitarizable):
    """A reducible class's loop transports fail its base check; the
    message names the integer end or ends, where the rank-one system can
    carry a logarithm that the class's diagonal representation lacks."""


class NotPositiveDefinite(NumericalFailure):
    """A Hermitian matrix required to be positive definite is not."""


class NullStructureViolation(NumericalFailure):
    """Recovered connection data is not rank one trace free within drift tolerance."""


class BallEscape(NumericalFailure):
    """A projected mesh position is not finite or lies outside the open unit ball."""


class EmptyIntersection(TrinoidError):
    """A cutting plane does not meet the surface mesh."""


class EigenvalueMismatch(UserWarning):
    """Monodromy eigenvalues disagree with the predicted unit circle values."""
