from graphlib import CycleError, TopologicalSorter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdmetrics.diagram import (
    ClassDecl,
    ClassDiagram,
    RelKind,
    Relationship,
    validate,
)
from cdmetrics.errors import DiagramError, HierarchyCycle

from .conftest import fails, valid_diagrams
from .oracles import random_diagram


def _classes(*names):
    return tuple(ClassDecl(n) for n in names)


def test_empty_diagram_is_valid():
    d = ClassDiagram("empty")
    assert validate(d) == d


def test_diagram_is_unequal_to_other_types_and_has_a_repr():
    assert ClassDiagram() != "x"
    assert repr(ClassDiagram()).startswith("ClassDiagram(id='unnamed'")


def test_two_cycle_generalization_rejected():
    d = ClassDiagram("d", _classes("A", "B"), (
        Relationship(RelKind.GENERALIZATION, "A", "B"),
        Relationship(RelKind.GENERALIZATION, "B", "A"),
    ))
    with fails(HierarchyCycle, 3, "generalization cycle: A -> B -> A") as exc:
        validate(d)
    assert set(exc.value.cycle) == {"A", "B"}


def test_undeclared_endpoint_rejected():
    d = ClassDiagram("d", _classes("Foo"), (
        Relationship(RelKind.ASSOCIATION, "Foo", "Bar"),
    ))
    with fails(DiagramError, 3, "association relationship references undeclared class 'Bar'"):
        validate(d)


def test_duplicate_class_rejected():
    d = ClassDiagram("d", _classes("A", "A"))
    with fails(DiagramError, 3, "class 'A' declared more than once"):
        validate(d)


def test_aggregation_cycle_rejected():
    d = ClassDiagram("d", _classes("A", "B", "C"), (
        Relationship(RelKind.AGGREGATION, "A", "B"),
        Relationship(RelKind.AGGREGATION, "B", "C"),
        Relationship(RelKind.AGGREGATION, "C", "A"),
    ))
    with fails(HierarchyCycle, 3, "aggregation cycle: A -> B -> C -> A"):
        validate(d)


def test_duplicate_generalization_pair_rejected():
    d = ClassDiagram("d", _classes("A", "B"), (
        Relationship(RelKind.GENERALIZATION, "A", "B"),
        Relationship(RelKind.GENERALIZATION, "A", "B"),
    ))
    with fails(DiagramError, 3, "duplicate generalization edge A -> B"):
        validate(d)


@pytest.mark.parametrize("relationships, error, message", [
    ([(RelKind.GENERALIZATION, "A", "B"), (RelKind.GENERALIZATION, "B", "A"),
      (RelKind.GENERALIZATION, "A", "B")], DiagramError, "duplicate generalization edge A -> B"),
    ([(RelKind.AGGREGATION, "A", "B"), (RelKind.AGGREGATION, "A", "B"),
      (RelKind.GENERALIZATION, "A", "B"), (RelKind.GENERALIZATION, "B", "A")],
     HierarchyCycle, "generalization cycle: A -> B -> A"),
], ids=["gen_duplicate_before_gen_cycle", "gen_cycle_before_agg_duplicate"])
def test_hierarchy_error_precedence(relationships, error, message):
    d = ClassDiagram("d", _classes("A", "B"), tuple(
        Relationship(kind, src, dst) for kind, src, dst in relationships
    ))
    with fails(error, 3, message):
        validate(d)


_ASSOC, _DEP, _GEN, _AGG = (RelKind.ASSOCIATION, RelKind.DEPENDENCY, RelKind.GENERALIZATION,
                            RelKind.AGGREGATION)


@pytest.mark.parametrize("classes, relationships, message", [
    (("A", "B", "A"), [(_ASSOC, "A", "Z")], "class 'A' declared more than once"),
    (("A", "B"), [(_ASSOC, "A", "B"), (_DEP, "A", "X"), (_GEN, "Y", "A")],
     "dependency relationship references undeclared class 'X'"),
    (("A", "B"), [(_ASSOC, "P", "Q")], "association relationship references undeclared class 'P'"),
    (("A", "B"), [(_ASSOC, "B", "Q")], "association relationship references undeclared class 'Q'"),
    (("A", "B"), [(_GEN, "A", "B"), (_GEN, "B", "A"), (_ASSOC, "A", "Z")],
     "association relationship references undeclared class 'Z'"),
    (("A", "B"), [(_AGG, "A", "B"), (_AGG, "A", "B"), (_GEN, "B", "Z")],
     "generalization relationship references undeclared class 'Z'"),
    (("A", "B", "B", "A"), [], "class 'B' declared more than once"),
    (["A", "B", "B"], [(_ASSOC, "A", "Z")], "class 'B' declared more than once"),
    (("A", "B"), [(_ASSOC, "A", "X"), (_DEP, "Y", "B")],
     "association relationship references undeclared class 'X'"),
], ids=["duplicate_class_first", "first_bad_relationship", "both_ends_name_source",
        "target", "endpoint_before_cycle", "endpoint_before_duplicate_edge",
        "first_repeated_class", "classes_as_a_list", "bad_target_before_later_bad_source"])
def test_validate_error_order(classes, relationships, message):
    # Classes are checked first, then each relationship's source and target
    # in declaration order, and only then the hierarchies.  The names and
    # endpoints are checked as sets first, so each case also pins that the
    # walk after a failed set check names the first fault, not any fault.
    decls = _classes(*classes)
    d = ClassDiagram("d", list(decls) if isinstance(classes, list) else decls, tuple(
        Relationship(kind, src, dst) for kind, src, dst in relationships
    ))
    with fails(DiagramError, 3, message):
        validate(d)


def test_self_association_legal_self_generalization_not():
    ok = ClassDiagram("d", _classes("A"), (
        Relationship(RelKind.ASSOCIATION, "A", "A"),
    ))
    validate(ok)
    bad = ClassDiagram("d", _classes("A"), (
        Relationship(RelKind.GENERALIZATION, "A", "A"),
    ))
    with fails(HierarchyCycle, 3, "generalization cycle: A -> A"):
        validate(bad)


def test_duplicate_associations_allowed():
    d = ClassDiagram("d", _classes("A", "B"), (
        Relationship(RelKind.ASSOCIATION, "A", "B"),
        Relationship(RelKind.ASSOCIATION, "A", "B"),
        Relationship(RelKind.DEPENDENCY, "A", "B"),
        Relationship(RelKind.DEPENDENCY, "A", "B"),
    ))
    assert validate(d) == d


@given(valid_diagrams())
def test_validate_is_idempotent_and_preserves_order(d):
    v = validate(d)
    assert v == d
    assert v.classes == d.classes
    assert v.relationships == d.relationships
    assert validate(v) == v


def test_random_dags_pass_and_injected_back_edges_fail(rng):
    rejected = 0
    for _ in range(200):
        d = random_diagram(rng)
        validate(d)
        gen = [r for r in d.relationships if r.kind is RelKind.GENERALIZATION]
        if not gen:
            continue
        # close a path back on itself: child of some edge becomes a parent
        edge = rng.choice(gen)
        back = Relationship(RelKind.GENERALIZATION, edge.target, edge.source)
        cyclic = ClassDiagram(d.id, d.classes, d.relationships + (back,))
        with pytest.raises(HierarchyCycle) as exc:
            validate(cyclic)
        _assert_cycle_follows_edges(exc.value, cyclic, RelKind.GENERALIZATION)
        rejected += 1
    assert rejected > 20


def _cycle_message(kind, cycle):
    return f"{kind.value} cycle: {' -> '.join([*cycle, cycle[0]])}"


def _assert_cycle_follows_edges(error, diagram, kind):
    """error is a HierarchyCycle (exit 3) named by its `cycle`, which follows diagram's edges."""
    cycle = error.cycle
    assert (type(error), error.exit_code, str(error)) == (
        HierarchyCycle, 3, _cycle_message(kind, cycle))
    edges = {(r.source, r.target) for r in diagram.groups[kind]}
    closed = [*cycle, cycle[0]]
    assert all(pair in edges for pair in zip(closed, closed[1:]))


@pytest.mark.parametrize("kind, edges, message", [
    (RelKind.GENERALIZATION, [("A", "B"), ("B", "A")], "generalization cycle: A -> B -> A"),
    (RelKind.AGGREGATION, [("A", "B"), ("B", "C"), ("C", "A")],
     "aggregation cycle: A -> B -> C -> A"),
    (RelKind.GENERALIZATION, [("A", "A")], "generalization cycle: A -> A"),
], ids=["two_cycle", "three_cycle", "self_loop"])
def test_reported_cycle_follows_declared_edges(kind, edges, message):
    d = ClassDiagram("d", _classes("A", "B", "C"), tuple(
        Relationship(kind, src, dst) for src, dst in edges
    ))
    with fails(HierarchyCycle, 3, message) as exc:
        validate(d)
    assert len(exc.value.cycle) == len(edges)
    _assert_cycle_follows_edges(exc.value, d, kind)


def test_long_generalization_cycle_rejected_without_recursion_error():
    n = 10**4
    names = [f"C{i}" for i in range(n)]
    d = ClassDiagram("ring", _classes(*names), tuple(
        Relationship(RelKind.GENERALIZATION, names[i], names[(i + 1) % n])
        for i in range(n)
    ))
    with pytest.raises(HierarchyCycle) as exc:
        validate(d)
    assert len(exc.value.cycle) == n
    _assert_cycle_follows_edges(exc.value, d, RelKind.GENERALIZATION)


@st.composite
def cyclic_edges(draw):
    """Distinct edges, in any order, with at least one cycle among N0..N5, at
    least one edge into a class S0..S2 that has no outgoing edge, and edges
    from each class R0..R2, which has no incoming edge, into the ring and
    maybe into other classes N0..N5 and S0..S2."""
    nodes = [f"N{i}" for i in range(draw(st.integers(1, 6)))]
    sinks = [f"S{i}" for i in range(draw(st.integers(1, 3)))]
    sources = [f"R{i}" for i in range(draw(st.integers(0, 3)))]
    ring = draw(st.lists(st.sampled_from(nodes), min_size=1, unique=True))
    edges = dict.fromkeys(zip(ring, ring[1:] + ring[:1]))
    edges.update(dict.fromkeys(draw(st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes + sinks))))))
    edges.update(dict.fromkeys(draw(st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(sinks)), min_size=1))))
    if sources:
        edges.update(dict.fromkeys((source, draw(st.sampled_from(ring))) for source in sources))
        edges.update(dict.fromkeys(draw(st.lists(
            st.tuples(st.sampled_from(sources), st.sampled_from(nodes + sinks))))))
    return draw(st.permutations(list(edges)))


@given(cyclic_edges())
def test_a_cycle_is_the_one_graphlib_finds_among_the_classes_inside(edges):
    # The reference: graphlib's walk of the edges between classes with both an incoming
    # and an outgoing edge, each source's targets in edge order.
    inside = {source for source, _ in edges} & {target for _, target in edges}
    successors = {}
    for source, target in edges:
        if source in inside:
            targets = successors.setdefault(source, [])
            if target in inside:
                targets.append(target)
    with pytest.raises(CycleError) as found:
        TopologicalSorter(successors).prepare()
    cycle = found.value.args[1][:0:-1]
    names = sorted({name for edge in edges for name in edge})
    for kind in (RelKind.GENERALIZATION, RelKind.AGGREGATION):
        d = ClassDiagram("d", _classes(*names), tuple(
            Relationship(kind, source, target) for source, target in edges
        ))
        with fails(HierarchyCycle, 3, _cycle_message(kind, cycle)):
            validate(d)
