"""Exception hierarchy shared by all modules.

The CLI maps these onto distinct exit codes, so raising the right class is
part of the public contract: ParseError -> 2, PreconditionError -> 3,
BudgetExhausted -> 4, AgreementError -> 5.
"""


class JetspaceError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(JetspaceError):
    """Malformed textual input (polynomial expression or problem file)."""

    def __init__(self, message, position=None, line=None):
        self.position = position
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if position is not None:
            where.append(f"column {position + 1}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class PreconditionError(JetspaceError):
    """An operation was called outside its documented domain."""


class RingMismatchError(PreconditionError):
    """Operands live in different polynomial rings."""


class BudgetExhausted(JetspaceError):
    """A computation hit its pair or degree budget.

    Raising instead of returning keeps partial results from being mistaken
    for answers.  The message records which cap was hit and where.
    """

    def __init__(self, message, pairs_done=None, degree=None):
        self.pairs_done = pairs_done
        self.degree = degree
        super().__init__(message)


class AgreementError(JetspaceError):
    """Two routes that must agree by a theorem disagreed.

    This signals an implementation bug, not bad input.  The library never
    catches it; the CLI reports it with status agreement-error and exit 5.
    """
