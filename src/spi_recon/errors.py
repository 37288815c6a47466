"""Exception types shared across the library."""


class InvalidArgumentError(ValueError):
    """Precondition violation: bad dimensions, ranges, or inconsistent inputs."""


class SingularSystemError(RuntimeError):
    """Least-squares system is underdetermined or numerically rank-deficient."""


class NumericalFailureError(RuntimeError):
    """A solver produced non-finite values or an inner iteration broke down."""

    def __init__(self, message, iteration=None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration


class LineSearchFailureError(NumericalFailureError):
    """Backtracking line search exhausted its shrink budget."""


class DomainError(ValueError):
    """Objective evaluated outside its domain (e.g. log of a non-positive value)."""


class UnknownSolverError(KeyError):
    """Requested solver name is not in the registry."""

    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


class FormatError(ValueError):
    """Malformed file content (PGM or bundle)."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
