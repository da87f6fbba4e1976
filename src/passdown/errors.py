"""Typed errors, mapped onto the CLI exit codes (1/2/3)."""


class PassdownError(Exception):
    exit_code = 3


class FixtureError(PassdownError):
    """Malformed input: parse failures and invariant violations at load."""

    exit_code = 2

    def __init__(self, message, line=None, column=None):
        if line is not None:
            loc = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ConsistencyError(FixtureError):
    """Input annotations contradict each other (bad fixture, not a bug)."""


class TruncationError(FixtureError):
    """A desk-scale horizon is too short for the requested surgery.

    Raised when a collapse would need tree edges beyond a truncated end;
    the fix is to extend the ray or the boundary marking of the fixture.
    """


class HypothesisError(PassdownError):
    """A lemma-level precondition does not hold for the given data."""

    exit_code = 1

    def __init__(self, message, lemma=None):
        if lemma:
            message = f"[{lemma}] {message}"
        super().__init__(message)
        self.lemma = lemma


class LinkCapError(HypothesisError):
    """The link-size cap of the former simple-cone enumeration.  Nothing
    raises it any more; the benchmark's span recorder still imports it."""


class EngineError(PassdownError):
    """Internal invariant failure: indicates an engine bug, not bad input."""

    exit_code = 3
