"""Exception types shared across the toolkit.

Validation problems (bad arguments, violated preconditions) are ValueError
subclasses; solver-level failures are RuntimeError subclasses so callers can
distinguish "you asked wrong" from "the computation gave up".
"""

import math


class ValidationError(ValueError):
    """A precondition on user-supplied parameters is violated."""


def require_finite(name, value, positive=False) -> None:
    """Raise ValidationError unless the scalar ``value`` is finite (and > 0 if ``positive``)."""
    if not (math.isfinite(value) and (value > 0 or not positive)):
        kind = "finite and positive" if positive else "finite"
        raise ValidationError(f"{name} must be {kind}, got {value}")


class SingularSpeedError(ValidationError):
    """Wave speed lies in the closed range of the flow (essential spectrum)."""


class SingularPotentialError(ValidationError):
    """|u(node) - c| below 1e-13 with a non-vanishing numerator at that node."""


class WrongSignBetaError(ValidationError):
    """Endpoint variational problem requested with the wrong sign of beta."""


class OutOfRangeLambdaError(ValidationError):
    """Target eigenvalue outside the attainable range of the speed sweep."""


class PositiveEigenvalueError(ValidationError):
    """No bifurcation point: the principal eigenvalue is not negative."""


class NoConvergenceError(RuntimeError):
    """An iterative solver failed to converge within its iteration budget."""


class BracketFailureError(RuntimeError):
    """A sign-change bracket could not be established for root finding."""


class NoBracketError(BracketFailureError):
    """Level-set scan found no sign change over the scanned range."""
