"""In-memory class-diagram model with structural validation."""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import filterfalse
from operator import itemgetter

from .errors import DiagramError, HierarchyCycle

class RelKind(Enum):
    ASSOCIATION = "association"
    AGGREGATION = "aggregation"
    DEPENDENCY = "dependency"
    GENERALIZATION = "generalization"
    # Identity, as Enum's equality is, and in C: Enum's own __hash__ is a Python call.
    __hash__ = object.__hash__


class ClassDecl(namedtuple("ClassDecl", "name attributes methods", defaults=((), ()))):
    """A class with its declared attribute and method names, in source order:
    a name and two tuples of names."""

    __slots__ = ()


class Relationship(namedtuple("Relationship", "kind source target")):
    """An edge of a RelKind between two declared classes, named by source and target.

    Directionality by kind: aggregation is whole -> part, dependency is
    source -> target, generalization is child -> parent.  Association keeps
    the written order but carries no direction.
    """

    __slots__ = ()


class Hierarchies(namedtuple("Hierarchies", "depths total")):
    """A hierarchy kind's class depths (a dict by class name), and how many
    hierarchies its edges form."""

    __slots__ = ()


class ClassDiagram:
    """A named set of classes plus relationships, in declaration order.

    Equality is structural: same id, same classes in order, and the same
    per-kind relationship sequences.  The interleaving of different kinds in
    the relationship list is presentation order only, so canonical
    serialization (which groups by kind) round-trips to an equal diagram.
    A plain class whose attributes must not be reassigned: `groups` and
    `hierarchies` are worked out on first use and cached on the instance.
    A diagram is not hashable.
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
    def groups(self) -> dict[RelKind, tuple[Relationship, ...]]:
        groups: dict[RelKind, list[Relationship]] = {kind: [] for kind in RelKind}
        for r in self.relationships:
            groups[r.kind].append(r)
        return {kind: tuple(rels) for kind, rels in groups.items()}

    @cached_property
    def hierarchies(self) -> dict[RelKind, Hierarchies]:
        """Each hierarchy kind's node depths and hierarchy count: generalization,
        then aggregation.

        One walk over a kind's edges builds its successor map and a union-find
        whose roots are its hierarchies (weakly connected components with an
        edge).  A node's depth is its longest outgoing path.  Sinks (no outgoing
        edge of the kind) and sources (no incoming one) are on no cycle, so
        graphlib sees only the nodes inside: sinks take depth 0 first, graphlib
        hands out the rest in ready batches at 1 + the batch's index (a node is
        ready once all its successors are done), and each source then takes 1 +
        its deepest target's depth.  `depths` lists sinks, batches, then sources;
        no caller reads its order.  Raises a DiagramError `duplicate <kind> edge
        A -> B`, or a HierarchyCycle `<kind> cycle: A -> B -> A` for a directed
        cycle (the one graphlib names in the whole graph), on the first violation
        found.  The cached dict is shared by every reader and must not be mutated.
        """
        hierarchies: dict[RelKind, Hierarchies] = {}
        for kind in (RelKind.GENERALIZATION, RelKind.AGGREGATION):
            successors: dict[str, dict[str, None]] = {}
            parent: dict[str, str] = {}
            joins = 0
            for _, source, target in self.groups[kind]:
                targets = successors.setdefault(source, {})
                if target in targets:
                    raise DiagramError(f"duplicate {kind.value} edge {source} -> {target}")
                targets[target] = None
                a, b = parent.setdefault(source, source), parent.setdefault(target, target)
                while a != parent[a]:
                    parent[a] = a = parent[parent[a]]  # parent[a] is set before a
                while b != parent[b]:
                    parent[b] = b = parent[parent[b]]
                parent[a] = b
                joins += a != b
            targeted = set().union(*successors.values())
            order = TopologicalSorter({source: filter(successors.__contains__, targets)
                                       for source, targets in successors.items()
                                       if source in targeted})
            try:
                order.prepare()
            except CycleError:
                # The cycles are the whole graph's, but graphlib's walk of the whole
                # graph may name another one: that one is reported.  args[1] walks the
                # cycle against the edges, first node repeated: [a, c, b, a] for a -> b -> c -> a.
                try:
                    TopologicalSorter(successors).prepare()
                except CycleError as exc:
                    raise HierarchyCycle(kind, exc.args[1][:0:-1]) from None
            depths = dict.fromkeys(filterfalse(successors.__contains__, parent), 0)
            for depth, layer in enumerate(iter(order.get_ready, ()), 1):
                depths.update(dict.fromkeys(layer, depth))
                order.done(*layer)
            for source, targets in successors.items():
                if source not in targeted:
                    depths[source] = 1 + max(map(depths.__getitem__, targets))
            hierarchies[kind] = Hierarchies(depths, len(parent) - joins)
        return hierarchies

    def __eq__(self, other):
        if not isinstance(other, ClassDiagram):
            return NotImplemented
        return (self.id, self.classes, self.groups) == (other.id, other.classes, other.groups)


def validate(diagram: ClassDiagram) -> ClassDiagram:
    """Check the diagram's structure and return the same diagram, with its
    hierarchy analysis (`hierarchies`: depths and counts) cached on it.

    Checks that class names are unique, that every relationship endpoint is
    a declared class, and that the generalization and aggregation subgraphs
    have no repeated edge and no directed cycle.  The names and endpoints are
    checked as sets first; only when one of those checks fails does a walk in
    declaration order name the fault.  Raises a DiagramError on the first
    violation found: `class 'A' declared more than once`, `<kind> relationship
    references undeclared class 'B'`, or a hierarchy's fault (see
    ClassDiagram.hierarchies).  Member names are not checked here: the readers
    (`dsl.parse`, `dsl.from_dict`) reject a class that names an attribute or
    method twice.  Nothing is reordered, and validating twice is a no-op.
    """
    classes, relationships = diagram.classes, diagram.relationships
    seen = set(map(itemgetter(0), classes))
    if len(seen) < len(classes):
        seen = set()
        for cls in classes:
            if cls.name in seen:
                raise DiagramError(f"class {cls.name!r} declared more than once")
            seen.add(cls.name)

    if not (seen.issuperset(map(itemgetter(1), relationships))
            and seen.issuperset(map(itemgetter(2), relationships))):
        for kind, source, target in relationships:
            if source not in seen or target not in seen:
                raise DiagramError(f"{kind.value} relationship references undeclared class "
                                   f"{source if source not in seen else target!r}")

    diagram.hierarchies  # raises on a duplicate hierarchy edge or a cycle
    return diagram
