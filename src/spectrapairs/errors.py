"""Shared exception types."""


class InvalidInputError(ValueError):
    """Raised when an operation's preconditions are violated."""


class TooLargeError(InvalidInputError):
    """Raised when the work an input asks for exceeds a stated budget."""


class InconsistencyError(RuntimeError):
    """Raised when a deduction derives a dimension contradiction.

    Carries the deduction trace (list of rule applications) that led to the
    contradiction, so the caller can report how the assumption failed.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
