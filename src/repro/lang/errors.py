"""Exception hierarchy for the MiniC language substrate."""

from __future__ import annotations


class MiniCError(Exception):
    """Base class for every error raised by the MiniC toolchain."""


class LexError(MiniCError):
    """Raised when the lexer encounters an invalid character or literal."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(MiniCError):
    """Raised when the parser encounters an unexpected token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SemanticError(MiniCError):
    """Raised for semantic problems detected before execution.

    Examples: duplicate function definitions, a program without ``main``, or
    a ``break``/``continue`` outside any loop (which carries its line).
    """

    def __init__(self, message: str, line: int = 0) -> None:
        if line:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class RuntimeMiniCError(MiniCError):
    """Base class for errors raised while interpreting a MiniC program."""

    def __init__(self, message: str, line: int = 0) -> None:
        if line:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class DivisionByZeroError(RuntimeMiniCError):
    """Integer division or modulo by zero."""


class MemoryError_(RuntimeMiniCError):
    """Out-of-bounds access, null dereference, or invalid pointer arithmetic.

    The trailing underscore avoids shadowing the Python built-in
    :class:`MemoryError`, which has different semantics.
    """


class ProgramCrash(RuntimeMiniCError):
    """The simulated equivalent of a segfault / abort in the guest program.

    Replay treats reaching the crash *location* as the reproduction target, so
    the crash carries its source line and the name of the function in which it
    occurred.
    """

    def __init__(self, message: str, line: int = 0, function: str = "") -> None:
        super().__init__(message, line)
        self.function = function


class StepLimitExceeded(RuntimeMiniCError):
    """The interpreter exceeded the configured step budget."""


class ExitProgram(Exception):
    """Internal control-flow signal: the guest program called ``exit(code)``.

    Not a :class:`MiniCError` because it is not an error — it unwinds the
    interpreter back to the top-level run loop.
    """

    def __init__(self, code: int) -> None:
        super().__init__(f"exit({code})")
        self.code = code
