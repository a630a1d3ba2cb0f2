"""Exception taxonomy.

Two families matter downstream: domain/precondition errors are caller
problems (bad input, desk-scale caps, violated algorithm preconditions), while
oracle violations signal a broken engine and should never occur on
engine-produced data.
"""


class LocFactorError(Exception):
    """Base class for all library errors."""


class ParseError(LocFactorError):
    """Expression syntax error; carries the 0-based offset of the problem."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class MathDomainError(LocFactorError):
    """Input outside an operation's mathematical domain (zero, non-primitive, ...)."""


class DeskScaleError(MathDomainError):
    """Degree or magnitude cap exceeded."""


class PreconditionError(MathDomainError):
    """A stated precondition of a transfer algorithm does not hold."""


class OracleViolationError(LocFactorError):
    """An oracle (primality, localization factorization) returned inconsistent data."""


class DescentInconsistencyError(OracleViolationError):
    """A descended factorization does not multiply back; the localization oracle is broken."""
