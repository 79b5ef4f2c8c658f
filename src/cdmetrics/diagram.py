"""In-memory class-diagram model with structural validation."""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple

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


class ClassDecl(NamedTuple):
    """A class with its declared attribute and method names, in source order."""

    name: str
    attributes: tuple[str, ...] = ()
    methods: tuple[str, ...] = ()


class Relationship(NamedTuple):
    """An edge between two declared classes.

    Directionality by kind: aggregation is whole -> part, dependency is
    source -> target, generalization is child -> parent.  Association keeps
    the written order but carries no direction.
    """

    kind: RelKind
    source: str
    target: str


class ClassDiagram:
    """A named set of classes plus relationships, in declaration order.

    Equality is structural: same id, same classes in order, and the same
    per-kind relationship sequences.  The interleaving of different kinds in
    the relationship list is presentation order only, so canonical
    serialization (which groups by kind) round-trips to an equal diagram.
    A plain class whose attributes must not be reassigned: the name set, the
    per-kind grouping and the hierarchy depths are worked out on first use
    and cached on the instance.  A diagram is not hashable.
    """

    def __init__(self, id: str = "unnamed", classes: tuple[ClassDecl, ...] = (),
                 relationships: tuple[Relationship, ...] = ()):
        self.id = id
        self.classes = classes
        self.relationships = relationships

    def __repr__(self):
        return (f"ClassDiagram(id={self.id!r}, classes={self.classes!r}, "
                f"relationships={self.relationships!r})")

    @cached_property
    def name_set(self) -> frozenset[str]:
        return frozenset(c.name for c in self.classes)

    @cached_property
    def _groups(self) -> dict[RelKind, tuple[Relationship, ...]]:
        groups: dict[RelKind, list[Relationship]] = {kind: [] for kind in RelKind}
        for r in self.relationships:
            groups[r.kind].append(r)
        return {kind: tuple(rels) for kind, rels in groups.items()}

    def by_kind(self, kind: RelKind) -> tuple[Relationship, ...]:
        return self._groups[kind]

    @cached_property
    def depths(self) -> dict[RelKind, dict[str, int]]:
        """Longest outgoing path length, in edges, of every node of each
        hierarchy kind: generalization, then aggregation.

        One graphlib pass per kind orders each node after its successors, so
        a node's depth is 1 + the max depth of its successors (0 for a sink).
        Raises DuplicateHierarchyEdge, or GeneralizationCycle/AggregationCycle
        for a directed cycle, on the first violation found.  The cached dict
        is shared by every reader and must not be mutated.
        """
        depths: dict[RelKind, dict[str, int]] = {}
        for kind, cycle_error in (
            (RelKind.GENERALIZATION, GeneralizationCycle),
            (RelKind.AGGREGATION, AggregationCycle),
        ):
            successors: dict[str, dict[str, None]] = {}
            for r in self._groups[kind]:
                targets = successors.setdefault(r.source, {})
                if r.target in targets:
                    raise DuplicateHierarchyEdge(kind, (r.source, r.target))
                targets[r.target] = None
            level = depths[kind] = {}
            try:
                for node in TopologicalSorter(successors).static_order():
                    level[node] = 1 + max((level[s] for s in successors.get(node, ())), default=-1)
            except CycleError as exc:
                # args[1] walks the cycle against the edges and repeats its
                # first node: [a, c, b, a] for a -> b -> c -> a.
                raise cycle_error(exc.args[1][:0:-1]) from None
        return depths

    def __eq__(self, other):
        if not isinstance(other, ClassDiagram):
            return NotImplemented
        return (self.id, self.classes, self._groups) == (other.id, other.classes, other._groups)


def validate(diagram: ClassDiagram) -> ClassDiagram:
    """Check the diagram's structure and return the same diagram, with its
    hierarchy analysis (`depths`) cached on it.

    Checks that class names are unique, that every relationship endpoint is
    a declared class, and that the generalization and aggregation subgraphs
    have no repeated edge and no directed cycle.  Raises DuplicateClass,
    UnknownEndpoint, DuplicateHierarchyEdge, GeneralizationCycle, or
    AggregationCycle on the first violation found.  Member names are not
    checked here: the readers (`dsl.parse`, `dsl.from_dict`) reject a class
    that names an attribute or method twice.  Nothing is reordered, and
    validating twice is a no-op.
    """
    seen: set[str] = set()
    for cls in diagram.classes:
        if cls.name in seen:
            raise DuplicateClass(cls.name)
        seen.add(cls.name)

    for rel in diagram.relationships:
        for endpoint in (rel.source, rel.target):
            if endpoint not in seen:
                raise UnknownEndpoint(rel.kind, endpoint)

    diagram.depths  # raises on a duplicate hierarchy edge or a cycle
    return diagram
