"""The eleven class-diagram design metrics.

All metrics are non-negative integer counts over a validated diagram:
size counts (NC, NA, NM), per-kind relationship counts (NAssoc, NAgg,
NDep, NGen), hierarchy counts (NAggH, NGenH), and the two longest-path
depths (MaxHAgg, MaxDIT).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .diagram import ClassDiagram, RelKind
from .errors import UnknownClass


@dataclass(frozen=True)
class MetricsVector:
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
        return {name: getattr(self, name) for name in METRIC_NAMES}

    def __getitem__(self, name: str) -> int:
        if name not in METRIC_NAMES:
            raise KeyError(name)
        return getattr(self, name)


METRIC_NAMES = tuple(f.name for f in fields(MetricsVector))


def _depth_metric(diagram: ClassDiagram, cls: str, kind: RelKind) -> int:
    if cls not in diagram.name_set:
        raise UnknownClass(cls)
    return diagram.depths[kind].get(cls, 0)


def dit(diagram: ClassDiagram, cls: str) -> int:
    """Longest child-to-parent generalization path from cls to a parentless root."""
    return _depth_metric(diagram, cls, RelKind.GENERALIZATION)


def hagg(diagram: ClassDiagram, cls: str) -> int:
    """Longest whole-to-part aggregation path from cls to a part-less leaf."""
    return _depth_metric(diagram, cls, RelKind.AGGREGATION)


def count_hierarchies(diagram: ClassDiagram, kind: RelKind) -> int:
    """Weakly connected components with at least one edge of the kind (union-find)."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for r in diagram.by_kind(kind):
        for node in (r.source, r.target):
            parent.setdefault(node, node)
        parent[find(r.source)] = find(r.target)

    return len({find(node) for node in parent})


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
