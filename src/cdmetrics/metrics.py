"""The eleven class-diagram design metrics.

All metrics are non-negative integer counts over a validated diagram:
size counts (NC, NA, NM), per-kind relationship counts (NAssoc, NAgg,
NDep, NGen), hierarchy counts (NAggH, NGenH), and the two longest-path
depths (MaxHAgg, MaxDIT).  The depth of each class is not a metric here:
read it from ClassDiagram.hierarchies.
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


def compute_metrics(diagram: ClassDiagram) -> MetricsVector:
    """All eleven metrics; a hierarchy fault raises the error validate() would."""
    groups, hierarchies = diagram.groups, diagram.hierarchies
    gen, agg = hierarchies[RelKind.GENERALIZATION], hierarchies[RelKind.AGGREGATION]
    return MetricsVector(
        NC=len(diagram.classes),
        NA=sum(len(c.attributes) for c in diagram.classes),
        NM=sum(len(c.methods) for c in diagram.classes),
        NAssoc=len(groups[RelKind.ASSOCIATION]),
        NAgg=len(groups[RelKind.AGGREGATION]),
        NDep=len(groups[RelKind.DEPENDENCY]),
        NGen=len(groups[RelKind.GENERALIZATION]),
        NAggH=agg.total,
        NGenH=gen.total,
        MaxHAgg=max(agg.depths.values(), default=0),
        MaxDIT=max(gen.depths.values(), default=0),
    )
