"""Exception hierarchy shared across the package."""


class MpecqError(Exception):
    """Base class for all package errors."""


class InputError(MpecqError):
    """Malformed or inconsistent user input (files, shapes, labels)."""


class InfeasiblePointError(MpecqError):
    """A point failed the feasibility residual checks it was required to pass."""


class ClassificationError(MpecqError):
    """An index could not be placed in any activity class.

    This signals a tolerance inconsistency between the point and the
    thresholds in use, not a bug in the caller.
    """


class ConvergenceError(MpecqError):
    """A solve exhausted its budget or ended above its tolerance.

    The feasibility kernel raises it at its outer-iteration cap; the
    lower-level path raises it when its read at C misses the residual
    tolerance, or when it stopped before C because a side assignment
    repeated or it reached its segment cap.  Carries the last residual
    and the iterations run (for the path, the segments it read or
    built).
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual
        self.iterations = iterations


class WitnessVerificationError(MpecqError):
    """A solver-produced certificate failed its independent re-check.

    Raised instead of returning a bad witness; callers never need to
    trust the LP solver directly.
    """
