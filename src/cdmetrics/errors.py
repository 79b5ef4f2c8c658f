"""Exception types raised across the package, and the file reader that raises them."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path


class CdmetricsError(Exception):
    """Base class for all errors raised by this package."""


class DiagramError(CdmetricsError):
    """A structural problem in a class diagram."""


class DuplicateClass(DiagramError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"class {name!r} declared more than once")


class UnknownEndpoint(DiagramError):
    def __init__(self, relationship, name: str):
        self.relationship = relationship
        self.name = name
        super().__init__(
            f"{relationship.kind.value} relationship references undeclared class {name!r}"
        )


class UnknownClass(DiagramError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no class named {name!r} in diagram")


class HierarchyCycle(DiagramError):
    """A directed cycle in the generalization or aggregation subgraph."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        path = " -> ".join(self.cycle + [self.cycle[0]])
        super().__init__(f"{self.label}: {path}")

    label = "cycle"


class GeneralizationCycle(HierarchyCycle):
    label = "generalization cycle"


class AggregationCycle(HierarchyCycle):
    label = "aggregation cycle"


class DuplicateHierarchyEdge(DiagramError):
    def __init__(self, kind, pair: tuple[str, str]):
        self.kind = kind
        self.pair = pair
        super().__init__(f"duplicate {kind.value} edge {pair[0]} -> {pair[1]}")


class DiagramFormatError(CdmetricsError):
    """A diagram file that is unreadable, not UTF-8, or not a diagram's JSON."""


class DslSyntaxError(DiagramFormatError):
    """Malformed DSL source; carries a 1-based line/column span."""

    def __init__(self, span, message: str):
        self.span = span
        super().__init__(f"{span.line}:{span.column}: {message}")


class ModelError(CdmetricsError):
    """A problem with a linear model or its fitting inputs."""


class InsufficientSamples(ModelError):
    def __init__(self, needed: int, got: int):
        self.needed = needed
        self.got = got
        super().__init__(f"need at least {needed} samples, got {got}")


class SingularDesign(ModelError):
    def __init__(self):
        super().__init__("design columns are linearly dependent")


class ValidationInputError(CdmetricsError):
    """Bad input to the rank-correlation routines."""


class EmptyInput(ValidationInputError):
    def __init__(self):
        super().__init__("cannot rank an empty list")


class TooFewPairs(ValidationInputError):
    def __init__(self, n: int, minimum: int = 2):
        self.n = n
        super().__init__(f"need at least {minimum} pairs, got {n}")


class InvalidAlpha(ValidationInputError):
    def __init__(self, alpha: float):
        self.alpha = alpha
        super().__init__(f"alpha must be in (0, 0.5], got {alpha}")


def check(value, kind: type, error: type[CdmetricsError], path: str = ""):
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
            return decode(Path(path).read_text(encoding="utf-8-sig"))
        except OSError as exc:
            raise error(str(exc.strerror or exc)) from None
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or JSON nested too deep
            raise error(str(exc)) from None
