"""Exception types raised across the package, and the file reader that raises them.

Every error type of the package is here, the corpus reader's CorpusError
included.  A class is a category: it carries the exit code the CLI returns
for it, and each fault is raised with its message written where it is found.
A DslSyntaxError's `span` and a HierarchyCycle's `cycle` are the only data
an error carries beyond its message.
"""

from __future__ import annotations

from contextlib import contextmanager


class CdmetricsError(Exception):
    """Base class for all errors raised by this package.

    `exit_code` is the CLI's exit code for the error, by its type: 2 for a
    DiagramFormatError (a diagram that cannot be read or parsed), 3 for a
    DiagramError (a diagram that parses but breaks a structural rule), and 4
    for every other error (a bad corpus or model file, or data that cannot be
    fitted or ranked).
    """

    exit_code = 4


class DiagramError(CdmetricsError):
    """A structural problem in a class diagram."""

    exit_code = 3


class HierarchyCycle(DiagramError):
    """A directed cycle of a hierarchy kind's edges; `cycle` lists its classes."""

    def __init__(self, kind, cycle: list[str]):
        self.cycle = list(cycle)
        path = " -> ".join(self.cycle + [self.cycle[0]])
        super().__init__(f"{kind.value} cycle: {path}")


class DiagramFormatError(CdmetricsError):
    """A diagram file that is unreadable, not UTF-8, or not a diagram's JSON."""

    exit_code = 2


class DslSyntaxError(DiagramFormatError):
    """Malformed DSL source; carries a 1-based line/column span."""

    def __init__(self, span, message: str):
        self.span = span
        super().__init__(f"{span.line}:{span.column}: {message}")


class ModelError(CdmetricsError):
    """A problem with a linear model or its fitting inputs."""


class CorpusError(CdmetricsError):
    """Malformed corpus file."""


class ValidationInputError(CdmetricsError):
    """Bad input to the rank-correlation routines."""


def check(value, kind: type, error: type[CdmetricsError], path: str):
    """value itself if it is a `kind`, else `error` at the field `path`."""
    if isinstance(value, kind):
        return value
    raise error(f"{path}: expected {kind.__name__}, got {value!r:.40}")


@contextmanager
def naming(path):
    """An error raised in the block gets the name of the file at fault in front."""
    try:
        yield
    except CdmetricsError as exc:
        # A DSL error's message starts with line:column, gcc-style.
        exc.args = (f"{path}{':' if isinstance(exc, DslSyntaxError) else ': '}{exc}",)
        raise


def read_file(path, error: type[CdmetricsError], decode=str):
    """decode(the UTF-8 text of a file, less a leading byte-order mark).  A file
    that cannot be read or decoded raises `error`; every error gets the file
    name in front."""
    with naming(path):
        try:
            with open(path, encoding="utf-8-sig") as file:
                return decode(file.read())
        except OSError as exc:
            raise error(str(exc.strerror or exc)) from None
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or JSON nested too deep
            raise error(str(exc)) from None
