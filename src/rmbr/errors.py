"""Exception hierarchy for the rmbr package.

A class's ``exit_code`` is the CLI's exit status for it: 1 for validation
errors (bad inputs, bad configuration, malformed files), 2 for runtime
errors (transport failures, remote scoring failures).  Every error raised
while n-best list i is checked or scored starts ``list i:`` (:func:`in_list`).
"""

from contextlib import contextmanager


class RmbrError(Exception):
    """Base class for all rmbr errors."""

    exit_code = 1


class InvalidInputError(RmbrError, ValueError):
    """Structurally invalid input data (empty lists, bad shapes, bad values)."""


class ConfigError(RmbrError, ValueError):
    """Inconsistent or incomplete configuration."""


class MissingScoreError(RmbrError):
    """A candidate lacks a field required by an active regularizer."""


class ParseError(RmbrError):
    """Malformed file content. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionError(RmbrError):
    """A preloaded utility matrix is too small for the requested shape."""


class TransportError(RmbrError):
    """Scorer-service connection, protocol, or timeout failure."""

    exit_code = 2


class ScoringError(RmbrError):
    """The scorer service returned an error response for a request."""

    exit_code = 2


@contextmanager
def in_list(index: int):
    """Re-raise an rmbr error raised inside as its own class, so its exit code is kept, with
    ``list index: `` in front; any other exception, ``KeyboardInterrupt`` too, passes untouched."""
    try:
        yield
    except RmbrError as e:
        raise type(e)(f"list {index}: {e}") from None
