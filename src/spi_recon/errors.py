"""Exception types shared across the library: each is an Error, and each
keeps a stdlib base, so ``except ValueError`` and the like still catch it."""


class Error(Exception):
    """Base of every library exception; exit_code is the CLI's exit status
    for it: 1 for a usage error, 2 for a runtime or data error."""

    exit_code = 2


class InvalidArgumentError(Error, ValueError):
    """Precondition violation: bad dimensions, ranges, or inconsistent inputs."""

    exit_code = 1


class SingularSystemError(Error, RuntimeError):
    """Least-squares system is underdetermined or numerically rank-deficient."""


class NumericalFailureError(Error, RuntimeError):
    """A solver produced non-finite values or an inner iteration broke down."""

    def __init__(self, message, iteration=None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration


class LineSearchFailureError(NumericalFailureError):
    """Backtracking line search halved its step until it underflowed to 0
    without passing the Armijo test."""


class DomainError(Error, ValueError):
    """Objective evaluated outside its domain (e.g. log of a non-positive value)."""


class UnknownSolverError(Error, KeyError):
    """Requested solver name is not in the registry."""

    exit_code = 1
    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


class FormatError(Error, ValueError):
    """Malformed file content (PGM or bundle)."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
