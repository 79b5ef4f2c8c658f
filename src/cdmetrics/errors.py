"""Exception types raised across the package, and the file reader that raises them.

Every error type of the package is here, the corpus reader's CorpusError
included.  A class is a category: it carries the exit code the CLI returns
for it.  An error carries its bare message in `args[0]`, and the place of the
fault in the fields `path`, `line` and `column`, each None until known; str()
renders them, gcc-style.  A HierarchyCycle also carries its `cycle`.
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

    def __init__(self, message: str, path=None, line=None, column=None):
        super().__init__(message)
        self.path, self.line, self.column = path, line, column

    def __str__(self):
        place = [str(part) for part in (self.path, self.line, self.column) if part is not None]
        return f"{':'.join(place)}: {self.args[0]}" if place else self.args[0]


class DiagramError(CdmetricsError):
    """A structural problem in a class diagram."""

    exit_code = 3


class HierarchyCycle(DiagramError):
    """A directed cycle of a hierarchy kind's edges; `cycle` lists its classes in edge order."""

    def __init__(self, kind, cycle: list[str]):
        self.cycle = list(cycle)
        path = " -> ".join(self.cycle + [self.cycle[0]])
        super().__init__(f"{kind.value} cycle: {path}")


class DiagramFormatError(CdmetricsError):
    """A diagram file that is unreadable, not UTF-8, or not a diagram's JSON."""

    exit_code = 2


class DslSyntaxError(DiagramFormatError):
    """Malformed DSL source, raised with the 1-based line and column at fault."""


class ModelError(CdmetricsError):
    """A problem with a linear model or its fitting inputs."""


class CorpusError(CdmetricsError):
    """Malformed corpus file."""


class ValidationInputError(CdmetricsError):
    """Bad input to the rank-correlation routines."""


def check(value, kind: type, error: type[CdmetricsError], field: str):
    """value itself if it is a `kind`, else `error` at the JSON field path `field`."""
    if isinstance(value, kind):
        return value
    raise error(f"{field}: expected {kind.__name__}, got {value!r:.40}")


@contextmanager
def naming(path):
    """An error raised in the block that names no file gets `path` as its file."""
    try:
        yield
    except CdmetricsError as exc:
        if exc.path is None:
            exc.path = path
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
