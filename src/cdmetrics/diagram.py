"""Immutable in-memory class-diagram model with structural validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from graphlib import CycleError, TopologicalSorter
from typing import Iterable

from .errors import (
    AggregationCycle,
    DuplicateClass,
    DuplicateHierarchyEdge,
    GeneralizationCycle,
    UnknownEndpoint,
)

class RelKind(Enum):
    ASSOCIATION = "association"
    AGGREGATION = "aggregation"
    DEPENDENCY = "dependency"
    GENERALIZATION = "generalization"


@dataclass(frozen=True)
class ClassDecl:
    """A class with its declared attribute and method names, in source order."""

    name: str
    attributes: tuple[str, ...] = ()
    methods: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("class name must be non-empty")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "methods", tuple(self.methods))
        for label, names in (("attribute", self.attributes), ("method", self.methods)):
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {label} name in class {self.name!r}")


@dataclass(frozen=True)
class Relationship:
    """An edge between two declared classes.

    Directionality by kind: aggregation is whole -> part, dependency is
    source -> target, generalization is child -> parent.  Association keeps
    the written order but carries no direction.
    """

    kind: RelKind
    source: str
    target: str


@dataclass(frozen=True, eq=False)
class ClassDiagram:
    """A named set of classes plus relationships, in declaration order.

    Equality is structural: same id, same classes in order, and the same
    per-kind relationship sequences.  The interleaving of different kinds in
    the relationship list is presentation order only, so canonical
    serialization (which groups by kind) round-trips to an equal diagram.
    """

    id: str = "unnamed"
    classes: tuple[ClassDecl, ...] = ()
    relationships: tuple[Relationship, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "relationships", tuple(self.relationships))

    def class_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)

    def by_kind(self, kind: RelKind) -> tuple[Relationship, ...]:
        return tuple(r for r in self.relationships if r.kind is kind)

    def _key(self):
        return (
            self.id,
            self.classes,
            tuple(self.by_kind(k) for k in RelKind),
        )

    def __eq__(self, other):
        if not isinstance(other, ClassDiagram):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def longest_paths(edges: Iterable[tuple[str, str]]) -> dict[str, int]:
    """Longest outgoing path length, in edges, of every node of one hierarchy kind.

    One graphlib pass orders each node after its successors, so a node's
    depth is 1 + the max depth of its successors (0 for a sink).  Raises
    graphlib.CycleError if the edges contain a directed cycle.
    """
    successors: dict[str, list[str]] = {}
    for src, dst in edges:
        successors.setdefault(src, []).append(dst)
    depths: dict[str, int] = {}
    for node in TopologicalSorter(successors).static_order():
        depths[node] = 1 + max((depths[s] for s in successors.get(node, ())), default=-1)
    return depths


def validate(diagram: ClassDiagram) -> ClassDiagram:
    """Check every diagram invariant and return the diagram unchanged.

    Raises DuplicateClass, UnknownEndpoint, DuplicateHierarchyEdge,
    GeneralizationCycle, or AggregationCycle on the first violation found.
    Never mutates or reorders anything; validating a valid diagram is a
    no-op, so the operation is idempotent.
    """
    seen: set[str] = set()
    for cls in diagram.classes:
        if cls.name in seen:
            raise DuplicateClass(cls.name)
        seen.add(cls.name)

    for rel in diagram.relationships:
        for endpoint in (rel.source, rel.target):
            if endpoint not in seen:
                raise UnknownEndpoint(rel, endpoint)

    for kind, cycle_error in (
        (RelKind.GENERALIZATION, GeneralizationCycle),
        (RelKind.AGGREGATION, AggregationCycle),
    ):
        edges = [(r.source, r.target) for r in diagram.by_kind(kind)]
        pairs: set[tuple[str, str]] = set()
        for pair in edges:
            if pair in pairs:
                raise DuplicateHierarchyEdge(kind, pair)
            pairs.add(pair)
        try:
            longest_paths(edges)
        except CycleError as exc:
            # args[1] walks the cycle against the edges and repeats its first
            # node: [a, c, b, a] for a -> b -> c -> a.
            raise cycle_error(exc.args[1][:0:-1]) from None

    return diagram
