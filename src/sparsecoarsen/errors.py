"""Shared exception types."""


class NumericalFailure(RuntimeError):
    """Raised when a computation produces non-finite values or a singular
    matrix where a regular one is required.

    The partial convergence trace, when one exists, is attached as ``trace``
    so callers can keep whatever progress was made.
    """

    trace = None
