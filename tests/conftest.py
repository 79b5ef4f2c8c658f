from __future__ import annotations

import io
import os
import random
import string
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from cdmetrics.cli import main
from cdmetrics.diagram import ClassDecl, ClassDiagram, RelKind, Relationship

# The CLI tests' one diagram with every model predictor nonzero: NAssoc=5, NA=20, MaxDIT=2.
BIG = (
    "diagram big\n"
    "class A {\n" + "".join(f"  attr a{i}\n" for i in range(10)) + "}\n"
    "class B {\n" + "".join(f"  attr b{i}\n" for i in range(10)) + "}\n"
    "class C {}\nclass D {}\n"
    "assoc A -- B\nassoc A -- C\nassoc A -- D\nassoc B -- C\nassoc B -- D\n"
    "gen C => B\ngen B => A\n"
)

# For tests/mutants.py: a failure found is enough, so no shrinking, and no example
# database, so that one mutant's failing example is not replayed for the next.
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink],
                          database=None)


# A fresh interpreter's environment, in which the package imports from this checkout.
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))}


def write_files(directory, files: dict) -> None:
    """Write each {name: content} into directory: bytes as they are, a str as
    UTF-8 with its line ends as they are."""
    for name, content in files.items():
        path = Path(directory) / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8", newline="")


def run_cli(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv); a usage error's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@contextmanager
def fails(category, exit_code: int, message: str):
    """The block must raise an error of exactly `category`, whose exit code is
    `exit_code` and whose message is the whole of `message`."""
    with pytest.raises(category) as exc:
        yield exc
    assert (type(exc.value), exc.value.exit_code, str(exc.value)) == (category, exit_code, message)


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
