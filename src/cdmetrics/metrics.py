"""The eleven class-diagram design metrics.

All metrics are non-negative integer counts over a validated diagram:
size counts (NC, NA, NM), per-kind relationship counts (NAssoc, NAgg,
NDep, NGen), hierarchy counts (NAggH, NGenH), and the two longest-path
depths (MaxHAgg, MaxDIT).  The depth of each class is not a metric here:
read it from ClassDiagram.hierarchies.
"""

from __future__ import annotations

from collections import namedtuple


class MetricsVector(namedtuple(
        "MetricsVector", "NC NA NM NAssoc NAgg NDep NGen NAggH NGenH MaxHAgg MaxDIT",
        defaults=(0,) * 11)):
    """The eleven metrics as a plain tuple of ints, each 0 by default; read one
    by name with getattr."""

    __slots__ = ()

    def as_dict(self) -> dict[str, int]:
        return self._asdict()


METRIC_NAMES = MetricsVector._fields


def compute_metrics(diagram: ClassDiagram) -> MetricsVector:
    """All eleven metrics; a hierarchy fault raises the error validate() would."""
    from .diagram import RelKind  # here, so that `fit` and `reproduce` do not load the graph core

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
