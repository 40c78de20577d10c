"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle anything the library may raise.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParseError(ReproError):
    """Raised when Datalog source text cannot be parsed.

    Carries the line and column of the offending token when available.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ArityError(ReproError):
    """Raised when a predicate is used with inconsistent arities."""


class ValidationError(ReproError):
    """Raised when a program or query violates a structural requirement."""


class NotNonrecursiveError(ValidationError):
    """Raised when a nonrecursive program was required but a recursive
    one was supplied."""


class NotLinearError(ValidationError):
    """Raised when a linear program was required but a nonlinear one was
    supplied."""


class UnsafeProgramError(ValidationError):
    """Raised by the ``EngineConfig(validate=True)`` gate when a program
    carries error-severity diagnostics (unsafe rules).

    ``diagnostics`` holds the analyzer findings as plain dicts (see
    :mod:`repro.analysis.diagnostics`) so callers — ``Session``, the
    service protocol — can forward them as typed error payloads.
    """

    def __init__(self, message, diagnostics=()):
        self.diagnostics = [dict(d) for d in diagnostics]
        super().__init__(message)
