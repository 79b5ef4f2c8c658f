"""Line-oriented textual DSL for class diagrams, plus a structured-data form.

Grammar (one construct per line, ``#`` starts a comment, blank lines ignored)::

    diagram <identifier>        # optional, at most once, first construct
    class <Name> {
      attr <name>
      method <name>
    }
    assoc <A> -- <B>
    agg <Whole> o- <Part>
    dep <A> -> <B>
    gen <Child> => <Parent>

Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``.  A class body's first entry
may follow the ``{`` on the ``class`` line, and its closing ``}`` may stand
alone on its line, follow the last body entry, or close an empty body on the
``class`` line itself (``class A {}``).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagram import ClassDecl, ClassDiagram, RelKind, Relationship
from .errors import DiagramFormatError, DslSyntaxError, check

# The one identifier grammar, for DSL tokens and structured-data names alike.
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KINDS = {kind.value: kind for kind in RelKind}

_ARROWS = {
    "assoc": ("--", RelKind.ASSOCIATION),
    "agg": ("o-", RelKind.AGGREGATION),
    "dep": ("->", RelKind.DEPENDENCY),
    "gen": ("=>", RelKind.GENERALIZATION),
}


class SourceSpan(NamedTuple):
    line: int
    column: int


class _Line:
    """A line `parse` did not take in place, as tokens; only `fail` works out columns."""

    def __init__(self, number: int, code: str):
        self.number = number
        self.code = code
        self.tokens = code.split()

    def fail(self, index: int, message: str):
        starts = [m.start() + 1 for m in re.finditer(r"\S+", self.code)]
        if index < len(starts):
            column = starts[index]
        else:  # just past the last token, for "missing token" errors
            column = starts[-1] + len(self.tokens[-1])
        raise DslSyntaxError(SourceSpan(self.number, column), message)

    def ident(self, index: int, what: str) -> str:
        if index >= len(self.tokens):
            self.fail(index, f"expected {what}")
        token = self.tokens[index]
        if not _IDENT.match(token):
            self.fail(index, f"illegal identifier {token!r} for {what}")
        return token

    def expect(self, index: int, literal: str, what: str):
        if index >= len(self.tokens) or self.tokens[index] != literal:
            self.fail(index, f"expected {what} {literal!r}")

    def end(self, index: int):
        if index < len(self.tokens):
            self.fail(index, f"unexpected token {self.tokens[index]!r}")


def parse(source: str) -> ClassDiagram:
    """Parse DSL text into an (unvalidated) ClassDiagram in declaration order.

    One pass over the lines: each non-blank line is a top-level construct, or
    a body entry while a class body is open.  The common shapes are checked in
    place: ``class N {`` and ``<rel> A <arrow> B``, and in a body ``attr n``,
    ``method n`` and ``}``.  Only other lines, and any that fail, get a `_Line`.
    """
    diagram_id = None
    classes: list[ClassDecl] = []
    relationships: list[Relationship] = []
    body = None  # (name, attributes, methods) of the class whose body is open

    # Lines end at \n, \r\n or \r only, as an editor counts them; str.split()
    # takes other breaks, such as a form feed or U+2028, as whitespace.
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    for number, raw in enumerate(source.split("\n"), start=1):
        code = raw.split("#", 1)[0] if "#" in raw else raw
        tokens = code.split()
        if not tokens:
            continue
        last = number, code
        head, n = tokens[0], len(tokens)
        if body is None:
            if n == 3 and head == "class" and tokens[2] == "{" and _IDENT.match(tokens[1]):
                body = (tokens[1], {}, {})
                continue
            arrow, kind = _ARROWS.get(head, (None, None))
            if n == 4 and tokens[2] == arrow and _IDENT.match(tokens[1]) and _IDENT.match(tokens[3]):
                relationships.append(Relationship(kind, tokens[1], tokens[3]))
                continue
        elif n == 2 and head in ("attr", "method") and _IDENT.match(tokens[1]):
            members = body[1] if head == "attr" else body[2]
            if tokens[1] not in members:
                members[tokens[1]] = None
                continue
        elif tokens == ["}"]:
            classes.append(ClassDecl(body[0], tuple(body[1]), tuple(body[2])))
            body = None
            continue
        line = _Line(number, code)
        start = 0  # the token a body entry begins at
        if body is None:
            keyword = tokens[0]
            if keyword == "class":
                name = line.ident(1, "class name")
                if tokens[2:3] == ["{}"]:
                    line.end(3)
                    classes.append(ClassDecl(name))
                    continue
                line.expect(2, "{", "class body opener")
                body = (name, {}, {})
                start = 3
                if len(tokens) == start:
                    continue
            elif keyword in _ARROWS:
                arrow, kind = _ARROWS[keyword]
                left = line.ident(1, "class name")
                line.expect(2, arrow, "arrow")
                right = line.ident(3, "class name")
                line.end(4)
                relationships.append(Relationship(kind, left, right))
                continue
            elif keyword == "diagram" and not (diagram_id or classes or relationships):
                diagram_id = line.ident(1, "diagram name")
                line.end(2)
                continue
            elif keyword == "diagram":
                line.fail(0, "'diagram' header allowed only as the first construct")
            else:
                line.fail(0, f"unknown keyword {keyword!r}")

        name, attrs, methods = body
        head = tokens[start]
        if head in ("attr", "method"):
            member = line.ident(start + 1, f"{head} name")
            members = attrs if head == "attr" else methods
            if member in members:
                line.fail(start + 1, f"duplicate {head} name {member!r} in class {name!r}")
            members[member] = None
            if tokens[start + 2:start + 3] != ["}"]:
                line.end(start + 2)
                continue
            line.end(start + 3)
        elif head == "}":
            line.end(start + 1)
        else:
            line.fail(start, f"expected 'attr', 'method' or '}}' in class body, got {head!r}")
        classes.append(ClassDecl(name, tuple(attrs), tuple(methods)))
        body = None

    if body is not None:
        line = _Line(*last)  # the last non-blank line
        line.fail(len(line.tokens), f"unterminated body of class {body[0]!r}")
    return ClassDiagram(diagram_id or "unnamed", tuple(classes), tuple(relationships))


def serialize(diagram: ClassDiagram) -> str:
    """Canonical DSL text: header, classes, then assoc, agg, dep, gen.

    Within each section the source order is kept, so parse(serialize(d))
    equals d.
    """
    out = [f"diagram {diagram.id}"]
    for cls in diagram.classes:
        if not cls.attributes and not cls.methods:
            out.append(f"class {cls.name} {{}}")
            continue
        out.append(f"class {cls.name} {{")
        out.extend(f"  attr {a}" for a in cls.attributes)
        out.extend(f"  method {m}" for m in cls.methods)
        out.append("}")
    for keyword, (arrow, kind) in _ARROWS.items():
        for rel in diagram.by_kind(kind):
            out.append(f"{keyword} {rel.source} {arrow} {rel.target}")
    return "\n".join(out) + "\n"


def to_dict(diagram: ClassDiagram) -> dict:
    """Structured-data export with exact field names id/classes/relationships."""
    return {
        "id": diagram.id,
        "classes": [
            {
                "name": c.name,
                "attributes": list(c.attributes),
                "methods": list(c.methods),
            }
            for c in diagram.classes
        ],
        "relationships": [
            {"kind": r.kind.value, "from": r.source, "to": r.target}
            for r in diagram.relationships
        ],
    }


def _ident(value, path: str) -> str:
    if isinstance(value, str) and _IDENT.match(value):
        return value
    raise DiagramFormatError(f"{path}: expected an identifier, got {value!r:.40}")


def _class_decl(obj) -> ClassDecl:
    name = _ident(check(obj, dict, DiagramFormatError).get("name"), ".name")
    members = [
        tuple([_ident(n, path) for n in check(obj.get(key, []), list, DiagramFormatError, path)])
        for key, path in (("attributes", ".attributes"), ("methods", ".methods"))
    ]
    for label, names in zip(("attribute", "method"), members):
        if len(set(names)) != len(names):
            raise DiagramFormatError(f": duplicate {label} name in class {name!r}")
    return ClassDecl(name, *members)


def _relationship(obj) -> Relationship:
    kind = check(obj, dict, DiagramFormatError).get("kind")
    if not isinstance(kind, str) or kind.lower() not in _KINDS:
        raise DiagramFormatError(f".kind: expected one of {', '.join(_KINDS)}, got {kind!r:.40}")
    # Endpoints only need to be strings: validate() checks them against the classes.
    return Relationship(_KINDS[kind.lower()],
                        check(obj.get("from"), str, DiagramFormatError, ".from"),
                        check(obj.get("to"), str, DiagramFormatError, ".to"))


def _items(data: dict, key: str, build) -> tuple:
    """build(item) for each item of data[key]; an error gets the item's path in front."""
    items = []
    for i, obj in enumerate(check(data.get(key, []), list, DiagramFormatError, key)):
        try:
            items.append(build(obj))
        except DiagramFormatError as exc:
            raise DiagramFormatError(f"{key}[{i}]{exc}") from None
    return tuple(items)


def from_dict(data) -> ClassDiagram:
    """Structured-data import; inverse of to_dict.

    A container or field of the wrong type, an unknown relationship kind, or
    a name outside the DSL identifier grammar raises DiagramFormatError with
    the field's path, such as ``classes[0].attributes``.
    """
    check(data, dict, DiagramFormatError, "diagram")
    return ClassDiagram(
        _ident(data.get("id", "unnamed"), "id"),
        _items(data, "classes", _class_decl),
        _items(data, "relationships", _relationship),
    )
