"""Shared exception types.  Each carries the ``reason`` the CLI reports
when it ends a run."""


class InvalidInputError(ValueError):
    """Raised when an operation's preconditions are violated."""

    reason = "invalid_input"


class TooLargeError(InvalidInputError):
    """Raised when the work an input asks for exceeds a stated budget."""

    reason = "too_large"


def check_work(what: str, work: int, budget: int) -> int:
    """Return ``work`` if it is within ``budget``, else raise
    ``TooLargeError``.  A count of 2^64 or more is shown as the power of
    two below it, so the message stays short for any input."""
    if work <= budget:
        return work
    count = work if work < 2**64 else f"2^{work.bit_length() - 1}"
    raise TooLargeError(
        f"{what} needs at least {count} units of work, over its budget of {budget}"
    )


class InconsistencyError(RuntimeError):
    """Raised when a deduction derives a dimension contradiction.

    Carries the deduction trace (list of rule applications) that led to the
    contradiction, so the caller can report how the assumption failed.
    """

    reason = "inconsistent"

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
