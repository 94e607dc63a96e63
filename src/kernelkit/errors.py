"""Exception types shared across the package."""


class KernelKitError(Exception):
    """Base class for all errors raised by this package."""


class BoundsError(KernelKitError, IndexError):
    """A vertex index lies outside [0, vertex_count)."""


class GraphParseError(KernelKitError, ValueError):
    """Malformed graph text or JSON; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SizeCapError(KernelKitError):
    """The instance is too large for an exhaustive operation."""


class BudgetExceededError(KernelKitError):
    """An enumeration or iteration budget ran out before completion.

    `partial` optionally carries whatever progress was made (a trace, a
    count, ...) so callers can report it.
    """

    def __init__(self, message, partial=None):
        self.partial = partial
        super().__init__(message)


class ContractError(KernelKitError):
    """A documented precondition of an operation does not hold."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ConditionsViolatedError(ContractError):
    """Solver input fails its condition checker; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message, witness=report)
        self.report = report


class InternalInvariantError(KernelKitError):
    """A property the algorithms guarantee failed to hold: a bug."""

