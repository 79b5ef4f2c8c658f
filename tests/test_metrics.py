
import pytest
from hypothesis import given

import cdmetrics.diagram
from cdmetrics.diagram import ClassDecl, ClassDiagram, RelKind, Relationship, validate
from cdmetrics.dsl import parse
from cdmetrics.errors import (
    AggregationCycle,
    DuplicateHierarchyEdge,
    GeneralizationCycle,
)
from cdmetrics.metrics import (
    METRIC_NAMES,
    MetricsVector,
    compute_metrics,
    count_hierarchies,
)

from .conftest import valid_diagrams
from .oracles import metrics_brute, random_diagram


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
    assert DIAMOND.depths[GEN].get("D", 0) == 2
    assert DIAMOND.depths[GEN].get("B", 0) == 1
    assert DIAMOND.depths[GEN].get("A", 0) == 0


def test_dit_chain():
    d = _diagram("class A {}\nclass B {}\nclass C {}\ngen C => B\ngen B => A\n")
    assert d.depths[GEN].get("C", 0) == 2
    assert d.depths[GEN].get("A", 0) == 0


def test_hagg_paths():
    d = _diagram(
        "class W {}\nclass P1 {}\nclass P2 {}\nclass Q {}\n"
        "agg W o- P1\nagg P1 o- Q\nagg W o- P2\n"
    )
    assert d.depths[AGG].get("W", 0) == 2
    assert d.depths[AGG].get("P2", 0) == 0


def test_hierarchy_counting():
    d = _diagram(
        "class A {}\nclass B {}\nclass C {}\nclass Y {}\nclass Z {}\n"
        "gen C => B\ngen B => A\ngen Z => Y\n"
    )
    assert count_hierarchies(d, RelKind.GENERALIZATION) == 2
    assert count_hierarchies(d, RelKind.AGGREGATION) == 0
    assert count_hierarchies(DIAMOND, RelKind.GENERALIZATION) == 1


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


@pytest.mark.parametrize("reverse", [False, True], ids=["in_order", "reversed"])
@pytest.mark.parametrize(
    "kind, metric",
    [(GEN, "MaxDIT"), (AGG, "MaxHAgg")],
    ids=["generalization", "aggregation"],
)
def test_deep_chain_has_no_recursion_limit(kind, metric, reverse):
    d = _chain(kind, 10**4, reverse)
    assert getattr(compute_metrics(d), metric) == 9999
    assert d.depths[kind].get("C0", 0) == 9999
    assert d.depths[kind].get("C9999", 0) == 0


@pytest.mark.parametrize("measure", [
    compute_metrics, lambda d: d.depths[GEN].get("A", 0), lambda d: d.depths[AGG].get("A", 0),
], ids=["compute_metrics", "dit", "hagg"])
@pytest.mark.parametrize("kind, cycle_error", [
    (RelKind.GENERALIZATION, GeneralizationCycle),
    (RelKind.AGGREGATION, AggregationCycle),
], ids=["generalization", "aggregation"])
@pytest.mark.parametrize("fault", ["cycle", "duplicate"])
def test_unvalidated_hierarchy_faults_raise_typed_errors(measure, kind, cycle_error, fault):
    edges = [("A", "B"), ("B", "A")] if fault == "cycle" else [("A", "B"), ("A", "B")]
    d = ClassDiagram("d", (ClassDecl("A"), ClassDecl("B")), tuple(
        Relationship(kind, src, dst) for src, dst in edges
    ))
    with pytest.raises(cycle_error if fault == "cycle" else DuplicateHierarchyEdge):
        measure(d)


def test_one_graphlib_pass_per_hierarchy_kind(monkeypatch):
    built = []

    class CountingSorter(cdmetrics.diagram.TopologicalSorter):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cdmetrics.diagram, "TopologicalSorter", CountingSorter)
    d = parse(
        "class A {}\nclass B {}\nclass C {}\n"
        "gen C => B\ngen B => A\nagg A o- C\nagg B o- C\n"
    )
    assert compute_metrics(validate(d)).MaxDIT == 2
    assert (d.depths[GEN].get("C", 0), d.depths[AGG].get("A", 0)) == (2, 1)
    assert len(built) == 2
