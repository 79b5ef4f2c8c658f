
from contextlib import contextmanager

import pytest
from hypothesis import example, given

import cdmetrics.diagram
from cdmetrics.diagram import ClassDecl, ClassDiagram, RelKind, Relationship, validate
from cdmetrics.dsl import parse
from cdmetrics.errors import DiagramError, HierarchyCycle
from cdmetrics.metrics import (
    METRIC_NAMES,
    MetricsVector,
    compute_metrics,
)

from .conftest import fails, valid_diagrams
from .oracles import hierarchy_count_brute, longest_path_brute, metrics_brute, random_diagram


def _diagram(src):
    return validate(parse(src))


DIAMOND = _diagram(
    "class A {}\nclass B {}\nclass C {}\nclass D {}\n"
    "gen D => B\ngen D => C\ngen B => A\ngen C => A\n"
)
GEN, AGG = RelKind.GENERALIZATION, RelKind.AGGREGATION


def test_empty_diagram_all_zero():
    assert compute_metrics(_diagram("")) == MetricsVector()


def test_single_class_counts():
    d = _diagram("class A {\n attr x\n attr y\n attr z\n method m\n method n\n}\n")
    assert compute_metrics(d) == MetricsVector(NC=1, NA=3, NM=2)


def test_mixed_relationships():
    d = _diagram(
        "class A {}\nclass B {}\nclass C {}\nclass D {}\n"
        "gen C => B\ngen B => A\nagg A o- D\nassoc C -- D\n"
    )
    assert compute_metrics(d) == MetricsVector(
        NC=4, NAssoc=1, NAgg=1, NGen=2, NGenH=1, NAggH=1, MaxDIT=2, MaxHAgg=1,
    )


def test_diamond_inheritance():
    vec = compute_metrics(DIAMOND)
    assert (vec.NGen, vec.NGenH, vec.MaxDIT) == (4, 1, 2)
    assert DIAMOND.hierarchies[GEN].depths.get("D", 0) == 2
    assert DIAMOND.hierarchies[GEN].depths.get("B", 0) == 1
    assert DIAMOND.hierarchies[GEN].depths.get("A", 0) == 0


def test_dit_chain():
    d = _diagram("class A {}\nclass B {}\nclass C {}\ngen C => B\ngen B => A\n")
    assert d.hierarchies[GEN].depths.get("C", 0) == 2
    assert d.hierarchies[GEN].depths.get("A", 0) == 0


def test_hagg_paths():
    d = _diagram(
        "class W {}\nclass P1 {}\nclass P2 {}\nclass Q {}\n"
        "agg W o- P1\nagg P1 o- Q\nagg W o- P2\n"
    )
    assert d.hierarchies[AGG].depths.get("W", 0) == 2
    assert d.hierarchies[AGG].depths.get("P2", 0) == 0


# D's successors lie at different depths: B at 1 and C at 2 (C => E => A).
UNEVEN_DIAMOND = ClassDiagram("d", tuple(ClassDecl(c) for c in "ABCDE"), tuple(
    Relationship(GEN, source, target)
    for source, target in (("D", "B"), ("B", "A"), ("D", "C"), ("C", "E"), ("E", "A"))
))


@given(valid_diagrams())
@example(UNEVEN_DIAMOND)
def test_every_depth_is_the_longest_outgoing_path(d):
    # A node's depth is the last of its successors' ready batches plus one, not the first.
    hierarchies = validate(d).hierarchies
    for kind in (GEN, AGG):
        edges = [(r.source, r.target) for r in d.groups[kind]]
        depths = hierarchies[kind].depths
        assert [depths.get(c.name, 0) for c in d.classes] == [
            longest_path_brute(edges, c.name) for c in d.classes
        ]


def test_hierarchy_counting():
    d = _diagram(
        "class A {}\nclass B {}\nclass C {}\nclass Y {}\nclass Z {}\n"
        "gen C => B\ngen B => A\ngen Z => Y\n"
    )
    vec = compute_metrics(d)
    assert (vec.NGenH, vec.NAggH) == (2, 0)
    assert compute_metrics(DIAMOND).NGenH == 1


@given(valid_diagrams())
def test_agrees_with_brute_force(d):
    assert compute_metrics(validate(d)).as_dict() == metrics_brute(d)


@given(valid_diagrams())
def test_vector_invariants(d):
    vec = compute_metrics(validate(d))
    assert all(v >= 0 for v in vec)
    assert (vec.NGen == 0) == (vec.NGenH == 0) == (vec.MaxDIT == 0)
    assert (vec.NAgg == 0) == (vec.NAggH == 0) == (vec.MaxHAgg == 0)
    assert vec.NGenH <= vec.NGen and vec.NAggH <= vec.NAgg
    assert vec.MaxDIT <= vec.NGen and vec.MaxHAgg <= vec.NAgg


@given(valid_diagrams())
def test_adding_a_relationship_bumps_exactly_one_count(d):
    validate(d)
    if len(d.classes) < 2:
        return
    a, b = d.classes[0].name, d.classes[1].name
    before = compute_metrics(d).as_dict()
    extended = ClassDiagram(
        d.id, d.classes,
        d.relationships + (Relationship(RelKind.DEPENDENCY, a, b),),
    )
    after = compute_metrics(validate(extended)).as_dict()
    assert after["NDep"] == before["NDep"] + 1
    unchanged = set(METRIC_NAMES) - {"NDep"}
    assert {m: after[m] for m in unchanged} == {m: before[m] for m in unchanged}


@given(valid_diagrams())
def test_adding_a_class_never_decreases_nc(d):
    validate(d)
    grown = ClassDiagram(
        d.id, d.classes + (ClassDecl("zz_newcomer"),), d.relationships
    )
    if "zz_newcomer" in tuple(c.name for c in d.classes):
        return
    assert compute_metrics(validate(grown)).NC == compute_metrics(d).NC + 1


@given(valid_diagrams())
def test_isomorphism_invariance(d):
    validate(d)
    mapping = {name: f"R_{i}" for i, name in enumerate(tuple(c.name for c in d.classes))}
    renamed = ClassDiagram(
        d.id,
        tuple(ClassDecl(mapping[c.name], c.attributes, c.methods) for c in d.classes),
        tuple(
            Relationship(r.kind, mapping[r.source], mapping[r.target])
            for r in d.relationships
        ),
    )
    assert compute_metrics(validate(renamed)) == compute_metrics(d)


def test_brute_force_sweep(rng):
    for _ in range(300):
        d = random_diagram(rng)
        validate(d)
        assert compute_metrics(d).as_dict() == metrics_brute(d)


def _chain(kind, n, reverse):
    """An n-class chain C0 -> C1 -> ... along the edge direction of kind.

    The edges are declared from C0 on, or from the other end when reverse.
    """
    names = [f"C{i}" for i in range(n)]
    edges = [Relationship(kind, names[i], names[i + 1]) for i in range(n - 1)]
    if reverse:
        edges.reverse()
    return validate(ClassDiagram("chain", tuple(ClassDecl(c) for c in names), tuple(edges)))


_KINDS = pytest.mark.parametrize(
    "kind, depth_metric, count_metric",
    [(GEN, "MaxDIT", "NGenH"), (AGG, "MaxHAgg", "NAggH")],
    ids=["generalization", "aggregation"],
)


@pytest.mark.parametrize("reverse", [False, True], ids=["in_order", "reversed"])
@_KINDS
def test_deep_chain_has_no_recursion_limit(kind, depth_metric, count_metric, reverse):
    d = _chain(kind, 10**4, reverse)
    vec = compute_metrics(d)
    assert (getattr(vec, depth_metric), getattr(vec, count_metric)) == (9999, 1)
    assert d.hierarchies[kind].depths.get("C0", 0) == 9999
    assert d.hierarchies[kind].depths.get("C9999", 0) == 0



@_KINDS
def test_two_deep_chains_are_one_hierarchy_after_their_joining_edge(kind, depth_metric,
                                                                   count_metric):
    # C0 -> ... -> C4999 and C5000 -> ... -> C9999, then C4999 -> C5000: the last
    # edge makes the union-find walk the whole second chain to its root.
    half = 5000
    names = [f"C{i}" for i in range(2 * half)]
    pairs = [(names[i], names[i + 1]) for i in range(2 * half - 1) if i != half - 1]
    pairs.append((names[half - 1], names[half]))
    classes = tuple(ClassDecl(c) for c in names)
    for declared, hierarchies, depth in ((pairs[:-1], 2, half - 1), (pairs, 1, 2 * half - 1)):
        d = validate(ClassDiagram("chains", classes, tuple(
            Relationship(kind, source, target) for source, target in declared
        )))
        vec = compute_metrics(d)
        assert getattr(vec, count_metric) == hierarchy_count_brute(declared) == hierarchies
        assert getattr(vec, depth_metric) == depth


@pytest.mark.parametrize("measure", [
    compute_metrics,
    lambda d: d.hierarchies[GEN].depths.get("A", 0),
    lambda d: d.hierarchies[AGG].depths.get("A", 0),
], ids=["compute_metrics", "dit", "hagg"])
@pytest.mark.parametrize("kind", [RelKind.GENERALIZATION, RelKind.AGGREGATION],
                         ids=["generalization", "aggregation"])
@pytest.mark.parametrize("fault", ["cycle", "duplicate"])
def test_unvalidated_hierarchy_faults_raise_typed_errors(measure, kind, fault):
    edges = [("A", "B"), ("B", "A")] if fault == "cycle" else [("A", "B"), ("A", "B")]
    d = ClassDiagram("d", (ClassDecl("A"), ClassDecl("B")), tuple(
        Relationship(kind, src, dst) for src, dst in edges
    ))
    with (fails(HierarchyCycle, 3, f"{kind.value} cycle: A -> B -> A") if fault == "cycle"
          else fails(DiagramError, 3, f"duplicate {kind.value} edge A -> B")):
        measure(d)


class RecordingSorter(cdmetrics.diagram.TopologicalSorter):
    """A TopologicalSorter that keeps the nodes it is given in `given`."""

    def __init__(self, *args, **kwargs):
        self.given = set()
        super().__init__(*args, **kwargs)

    def add(self, node, *predecessors):
        self.given.update((node, *predecessors))
        super().add(node, *predecessors)


@contextmanager
def recorded_sorters():
    """In the block, diagram builds RecordingSorters: yields the list of those built."""
    sorters = []

    def build(*args, **kwargs):
        sorters.append(RecordingSorter(*args, **kwargs))
        return sorters[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cdmetrics.diagram, "TopologicalSorter", build)
        yield sorters


def test_one_graphlib_pass_per_hierarchy_kind():
    iterated = []

    class CountingEdges(tuple):
        def __iter__(self):
            iterated.append(self)
            return super().__iter__()

    d = parse(
        "class A {}\nclass B {}\nclass C {}\n"
        "gen C => B\ngen B => A\nagg A o- C\nagg B o- C\n"
    )
    with recorded_sorters() as built:
        validate(d)
        # Validation walked each hierarchy kind's edges: the metrics only take their len.
        for kind in (GEN, AGG):
            d.groups[kind] = CountingEdges(d.groups[kind])
        vec = compute_metrics(d)
    assert iterated == []
    assert (vec.NGen, vec.NGenH, vec.MaxDIT, vec.NAgg, vec.NAggH, vec.MaxHAgg) == (2, 1, 2, 2, 1, 1)
    assert (d.hierarchies[GEN].depths.get("C", 0), d.hierarchies[AGG].depths.get("A", 0)) == (2, 1)
    assert len(built) == 2


# Stars: each edge of a kind joins a source to a sink, so no class is inside a hierarchy.
STAR = ClassDiagram("d", tuple(ClassDecl(c) for c in "HABC"), (
    *(Relationship(GEN, child, "H") for child in "ABC"),
    *(Relationship(AGG, "H", part) for part in "AB"),
))
# S's first target is a sink, and its second heads a chain of two edges: S's depth is 3.
SINK_THEN_CHAIN = ClassDiagram("d", tuple(ClassDecl(c) for c in "SABCD"), tuple(
    Relationship(kind, source, target) for kind in (GEN, AGG)
    for source, target in (("S", "A"), ("S", "B"), ("B", "C"), ("C", "D"))
))


@given(valid_diagrams())
@example(DIAMOND)
@example(UNEVEN_DIAMOND)
@example(STAR)
@example(SINK_THEN_CHAIN)
def test_graphlib_is_given_only_classes_with_an_incoming_and_an_outgoing_edge(d):
    d = ClassDiagram(d.id, d.classes, d.relationships)  # nothing cached on it yet
    with recorded_sorters() as sorters:
        validate(d)
    assert len(sorters) == 2
    for kind, sorter in zip((GEN, AGG), sorters):
        successors = {}
        for r in d.groups[kind]:
            successors.setdefault(r.source, []).append(r.target)
        targets = {r.target for r in d.groups[kind]}
        depths = d.hierarchies[kind].depths
        assert sorter.given == successors.keys() & targets
        # A source, which graphlib is not given, is one above the deepest of its targets.
        assert {source: depths[source] for source in successors.keys() - targets} == {
            source: 1 + max(depths[target] for target in successors[source])
            for source in successors.keys() - targets
        }
        sinks = targets - successors.keys()
        assert {sink: depths.get(sink) for sink in sinks} == dict.fromkeys(sinks, 0)


@pytest.mark.parametrize("kind, sorts", [(GEN, 1), (AGG, 2)], ids=["generalization", "aggregation"])
def test_a_cycle_is_named_by_the_one_sort_of_its_kind(kind, sorts):
    # Generalization is sorted first: its cycle ends validation before aggregation's sort.
    # The source S and the sink T are left out of the sort that finds A -> B -> A.
    d = ClassDiagram("d", tuple(ClassDecl(c) for c in "ABST"), tuple(
        Relationship(kind, source, target)
        for source, target in (("S", "A"), ("A", "B"), ("B", "A"), ("B", "T"))
    ))
    with recorded_sorters() as sorters, fails(HierarchyCycle, 3, f"{kind.value} cycle: A -> B -> A"):
        validate(d)
    assert len(sorters) == sorts
    assert sorters[-1].given == {"A", "B"}
