"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all condlogic errors."""


class InvariantError(ToolkitError):
    """A domain invariant or operation precondition was violated."""


class ParseError(ToolkitError):
    """Template text could not be parsed; carries the source location."""

    def __init__(self, message: str, line: int, col: int):
        # All three arguments stay in ``args``, so pickle and copy rebuild the error.
        super().__init__(message, line, col)
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return "line {1}, column {2}: {0}".format(*self.args)


class BankError(ToolkitError):
    """The NLI bank cannot satisfy a sampling request."""


class GenerationError(ToolkitError):
    """Template generation could not make progress."""
