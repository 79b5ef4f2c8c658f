from __future__ import annotations

import random
import string

import pytest
from hypothesis import strategies as st

from cdmetrics.diagram import ClassDecl, ClassDiagram, RelKind, Relationship

# [A-Za-z_][A-Za-z0-9_]{0,8}, drawn as a first character and a tail: several
# times cheaper to generate than st.from_regex of the same pattern.
_FIRST = string.ascii_letters + "_"
identifiers = st.builds(str.__add__, st.sampled_from(_FIRST),
                        st.text(_FIRST + string.digits, max_size=8))


@st.composite
def class_decls(draw, name=None):
    attrs = draw(st.lists(identifiers, max_size=4, unique=True))
    methods = draw(st.lists(identifiers, max_size=4, unique=True))
    return ClassDecl(name or draw(identifiers), tuple(attrs), tuple(methods))


@st.composite
def valid_diagrams(draw, max_classes=6):
    names = draw(st.lists(identifiers, max_size=max_classes, unique=True))
    classes = tuple(draw(class_decls(name=n)) for n in names)
    relationships = []
    n = len(names)
    for kind in (RelKind.GENERALIZATION, RelKind.AGGREGATION):
        if n < 2:
            continue
        pairs = draw(st.lists(
            # j from the n - 1 indices other than i, without a rejecting filter
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(
                lambda p: (p[0], p[1] + (p[1] >= p[0]))
            ),
            max_size=2 * n,
        ))
        seen = set()
        for i, j in pairs:
            # orient strictly downward in index order: guaranteed acyclic
            lo, hi = min(i, j), max(i, j)
            pair = (names[hi], names[lo])
            if pair not in seen:
                seen.add(pair)
                relationships.append(Relationship(kind, *pair))
    if n:
        for kind in (RelKind.ASSOCIATION, RelKind.DEPENDENCY):
            endpoints = draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=n,
            ))
            relationships.extend(
                Relationship(kind, names[i], names[j]) for i, j in endpoints
            )
    relationships = draw(st.permutations(relationships))
    return ClassDiagram(draw(identifiers), classes, tuple(relationships))


@pytest.fixture
def rng():
    return random.Random(20260826)
