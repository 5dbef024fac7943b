"""Exception hierarchy shared across the package."""


class DegratioError(Exception):
    """Base class for all library errors."""


class ParameterError(DegratioError, ValueError):
    """An argument is out of the range the operation accepts."""


class PreconditionError(DegratioError, ValueError):
    """The input graph does not satisfy an operation's precondition."""


class GraphParseError(DegratioError, ValueError):
    """Malformed graph text input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetExceededError(DegratioError, RuntimeError):
    """A bounded search ran out of budget before producing an exact answer."""

    def __init__(self, message: str = "inexact: budget", explored: int = 0):
        self.explored = explored
        super().__init__(message)


class NoApplicableRule(DegratioError, LookupError):
    """No closed-form rule matches the input graph."""


class CertificateError(DegratioError):
    """A witness, recomputed independently, does not prove the claimed
    value, or a theorem the library relies on failed on the input."""
