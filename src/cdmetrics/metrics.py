"""The eleven class-diagram design metrics.

All metrics are non-negative integer counts over a validated diagram:
size counts (NC, NA, NM), per-kind relationship counts (NAssoc, NAgg,
NDep, NGen), hierarchy counts (NAggH, NGenH), and the two longest-path
depths (MaxHAgg, MaxDIT).  The depth of each class is not a metric here:
read it from ClassDiagram.depths.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import ClassDiagram, RelKind


class MetricsVector(NamedTuple):
    """The eleven metrics as a plain tuple; read one by name with getattr."""

    NC: int = 0
    NA: int = 0
    NM: int = 0
    NAssoc: int = 0
    NAgg: int = 0
    NDep: int = 0
    NGen: int = 0
    NAggH: int = 0
    NGenH: int = 0
    MaxHAgg: int = 0
    MaxDIT: int = 0

    def as_dict(self) -> dict[str, int]:
        return self._asdict()


METRIC_NAMES = MetricsVector._fields


def count_hierarchies(diagram: ClassDiagram, kind: RelKind) -> int:
    """Weakly connected components with at least one edge of the kind: by union-find,
    the classes on those edges less the unions that joined two components."""
    parent: dict[str, str] = {}
    unions = 0
    for _, a, b in diagram.by_kind(kind):
        a, b = parent.setdefault(a, a), parent.setdefault(b, b)
        while a != parent[a]:
            parent[a] = a = parent[parent[a]]  # parent[a] is set before a
        while b != parent[b]:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            unions += 1
    return len(parent) - unions


def compute_metrics(diagram: ClassDiagram) -> MetricsVector:
    """All eleven metrics; a hierarchy fault raises the error validate() would."""
    gen, agg = RelKind.GENERALIZATION, RelKind.AGGREGATION
    depths = diagram.depths
    return MetricsVector(
        NC=len(diagram.classes),
        NA=sum(len(c.attributes) for c in diagram.classes),
        NM=sum(len(c.methods) for c in diagram.classes),
        NAssoc=len(diagram.by_kind(RelKind.ASSOCIATION)),
        NAgg=len(diagram.by_kind(agg)),
        NDep=len(diagram.by_kind(RelKind.DEPENDENCY)),
        NGen=len(diagram.by_kind(gen)),
        NAggH=count_hierarchies(diagram, agg),
        NGenH=count_hierarchies(diagram, gen),
        MaxHAgg=max(depths[agg].values(), default=0),
        MaxDIT=max(depths[gen].values(), default=0),
    )
