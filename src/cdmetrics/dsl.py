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

Identifiers are ASCII letters, digits and ``_``, not starting with a digit
(``[A-Za-z_][A-Za-z0-9_]*``, which ``s.isascii() and s.isidentifier()``
tests), so ``café`` is an error.  A class body's first entry may follow the
``{`` on the ``class`` line, and its closing ``}`` may stand alone on its
line, follow the last body entry, or close an empty body on the ``class``
line itself (``class A {}``).  A syntax error names the line and the
column of the offending token, or of the place just past the line's last
token when a token is missing.
"""

from __future__ import annotations

import re

from .diagram import ClassDecl, ClassDiagram, RelKind, Relationship
from .errors import DiagramFormatError, DslSyntaxError, check

_KINDS = {kind.value: kind for kind in RelKind}
# The keys a JSON diagram may have: at the top level, in a class, in a relationship.
_DIAGRAM_KEYS = frozenset(("id", "classes", "relationships"))
_CLASS_KEYS = frozenset(("name", "attributes", "methods"))
_RELATIONSHIP_KEYS = frozenset(("kind", "from", "to"))
# A ClassDecl or Relationship from a tuple of its fields, without its Python-level __new__.
_record = tuple.__new__

_ARROWS = {
    "assoc": ("--", RelKind.ASSOCIATION),
    "agg": ("o-", RelKind.AGGREGATION),
    "dep": ("->", RelKind.DEPENDENCY),
    "gen": ("=>", RelKind.GENERALIZATION),
}


def _fail(number: int, code: str, index: int, message: str):
    """Raise a DslSyntaxError at the index-th token of a line, or just past its
    last token when that token is missing."""
    tokens = list(re.finditer(r"\S+", code))
    column = tokens[index].start() + 1 if index < len(tokens) else tokens[-1].end() + 1
    raise DslSyntaxError(message, line=number, column=column)


def _bad_ident(tokens: list, index: int, what: str) -> str:
    """The message for tokens[index], which is missing or not an identifier."""
    if index >= len(tokens):
        return f"expected {what}"
    return f"illegal identifier {tokens[index]!r} for {what}"


def parse(source: str) -> ClassDiagram:
    """Parse DSL text into an (unvalidated) ClassDiagram in declaration order.

    One pass over the lines: each non-blank line is a top-level construct, or
    a body entry while a class body is open.  Its tokens are checked left to
    right, and the first that fails raises a DslSyntaxError at its line and column.
    """
    diagram_id = None
    classes: list[ClassDecl] = []
    relationships: list[Relationship] = []
    name = None  # the class whose body is open, with its attrs and methods

    # Lines end at \n, \r\n or \r only, as an editor counts them; str.split()
    # takes other breaks, such as a form feed or U+2028, as whitespace.
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    lines = source.split("\n")
    if "#" in source:
        lines = [line.split("#", 1)[0] for line in lines]
    for number, code in enumerate(lines, start=1):
        tokens = code.split()
        if not tokens:
            continue
        last = number
        head, n = tokens[0], len(tokens)
        start = 0  # the token a body entry begins at
        if name is None:
            if head in _ARROWS:
                arrow, kind = _ARROWS[head]
                if n < 2 or not (tokens[1].isascii() and tokens[1].isidentifier()):
                    _fail(number, code, 1, _bad_ident(tokens, 1, "class name"))
                if n < 3 or tokens[2] != arrow:
                    _fail(number, code, 2, f"expected arrow {arrow!r}")
                if n < 4 or not (tokens[3].isascii() and tokens[3].isidentifier()):
                    _fail(number, code, 3, _bad_ident(tokens, 3, "class name"))
                if n > 4:
                    _fail(number, code, 4, f"unexpected token {tokens[4]!r}")
                relationships.append(_record(Relationship, (kind, tokens[1], tokens[3])))
                continue
            if head == "class":
                if n < 2 or not (tokens[1].isascii() and tokens[1].isidentifier()):
                    _fail(number, code, 1, _bad_ident(tokens, 1, "class name"))
                if n > 2 and tokens[2] == "{}":
                    if n > 3:
                        _fail(number, code, 3, f"unexpected token {tokens[3]!r}")
                    classes.append(_record(ClassDecl, (tokens[1], (), ())))
                    continue
                if n < 3 or tokens[2] != "{":
                    _fail(number, code, 2, "expected class body opener '{'")
                name, attrs, methods = tokens[1], {}, {}
                if n == 3:
                    continue
                tokens, start = tokens[3:], 3  # a body entry follows the {
                head, n = tokens[0], n - 3
            elif head == "diagram" and not (diagram_id or classes or relationships):
                if n < 2 or not (tokens[1].isascii() and tokens[1].isidentifier()):
                    _fail(number, code, 1, _bad_ident(tokens, 1, "diagram name"))
                if n > 2:
                    _fail(number, code, 2, f"unexpected token {tokens[2]!r}")
                diagram_id = tokens[1]
                continue
            elif head == "diagram":
                _fail(number, code, 0, "'diagram' header allowed only as the first construct")
            else:
                _fail(number, code, 0, f"unknown keyword {head!r}")

        if head == "attr" or head == "method":
            if n < 2 or not (tokens[1].isascii() and tokens[1].isidentifier()):
                _fail(number, code, start + 1, _bad_ident(tokens, 1, f"{head} name"))
            members = attrs if head == "attr" else methods
            if tokens[1] in members:
                _fail(number, code, start + 1,
                      f"duplicate {head} name {tokens[1]!r} in class {name!r}")
            members[tokens[1]] = None
            if n == 2:
                continue
            if tokens[2] != "}":
                _fail(number, code, start + 2, f"unexpected token {tokens[2]!r}")
            if n > 3:
                _fail(number, code, start + 3, f"unexpected token {tokens[3]!r}")
        elif head != "}":
            _fail(number, code, start,
                  f"expected 'attr', 'method' or '}}' in class body, got {head!r}")
        elif n > 1:
            _fail(number, code, start + 1, f"unexpected token {tokens[1]!r}")
        classes.append(_record(ClassDecl, (name, tuple(attrs), tuple(methods))))
        name = None

    if name is not None:
        code = lines[last - 1]
        _fail(last, code, len(code.split()), f"unterminated body of class {name!r}")
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
        for rel in diagram.groups[kind]:
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
    if isinstance(value, str) and value.isascii() and value.isidentifier():
        return value
    raise DiagramFormatError(f"{path}: expected an identifier, got {value!r:.40}")


def from_dict(data) -> ClassDiagram:
    """Structured-data import; inverse of to_dict.

    One ordered walk over `classes` and one over `relationships`, as `parse`
    reads lines: each item's checks run in turn (its type, its keys, its names
    against the DSL identifier grammar, its member lists for repeats, a
    relationship's `kind`, in any case), and the first that fails raises a
    DiagramFormatError with the field's path, such as ``classes[0].attributes``.
    An item's index in that path is the count of items already accepted.  The
    diagram's own type and keys are checked before any item.
    """
    check(data, dict, DiagramFormatError, "diagram")
    if not _DIAGRAM_KEYS.issuperset(data):
        _unknown_key(data, _DIAGRAM_KEYS, "diagram")
    diagram_id = _ident(data.get("id", "unnamed"), "id")
    isascii, isident = str.isascii, str.isidentifier
    classes = []
    for obj in check(data.get("classes", []), list, DiagramFormatError, "classes"):
        if not isinstance(obj, dict):
            check(obj, dict, DiagramFormatError, f"classes[{len(classes)}]")
        if not _CLASS_KEYS.issuperset(obj):
            _unknown_key(obj, _CLASS_KEYS, f"classes[{len(classes)}]")
        if not (isinstance(name := obj.get("name"), str) and isascii(name) and isident(name)):
            _ident(name, f"classes[{len(classes)}].name")
        attrs, methods = obj.get("attributes", []), obj.get("methods", [])
        try:  # an unbound str method raises TypeError for a value not a str
            named = all(map(isascii, names := attrs + methods)) and all(map(isident, names))
        except TypeError:
            named = False
        if not (named and isinstance(attrs, list) and isinstance(methods, list)):
            path = f"classes[{len(classes)}]"
            for field, members in ("attributes", attrs), ("methods", methods):
                for member in check(members, list, DiagramFormatError, f"{path}.{field}"):
                    _ident(member, f"{path}.{field}")
        if len(set(attrs)) != len(attrs) or len(set(methods)) != len(methods):
            label = "attribute" if len(set(attrs)) != len(attrs) else "method"
            raise DiagramFormatError(
                f"classes[{len(classes)}]: duplicate {label} name in class {name!r}")
        classes.append(_record(ClassDecl, (name, tuple(attrs), tuple(methods))))
    rels = []
    for obj in check(data.get("relationships", []), list, DiagramFormatError, "relationships"):
        if not isinstance(obj, dict):
            check(obj, dict, DiagramFormatError, f"relationships[{len(rels)}]")
        if not _RELATIONSHIP_KEYS.issuperset(obj):
            _unknown_key(obj, _RELATIONSHIP_KEYS, f"relationships[{len(rels)}]")
        if not (isinstance(kind := obj.get("kind"), str)
                and (rel_kind := _KINDS.get(kind.lower()))):
            raise DiagramFormatError(f"relationships[{len(rels)}].kind: expected one of "
                                     f"{', '.join(_KINDS)}, got {kind!r:.40}")
        # Endpoints need only be strings: validate() checks them against the classes.
        if not (isinstance(source := obj.get("from"), str)
                and isinstance(target := obj.get("to"), str)):
            for end in ("from", "to"):
                check(obj.get(end), str, DiagramFormatError, f"relationships[{len(rels)}].{end}")
        rels.append(_record(Relationship, (rel_kind, source, target)))
    return ClassDiagram(diagram_id, tuple(classes), tuple(rels))


def _unknown_key(obj: dict, allowed: frozenset, path: str):
    """Raise a DiagramFormatError at `path` naming the first key of obj not in
    allowed, with the allowed key nearest to it, if any is near."""
    import difflib  # only an error needs it

    key = next(key for key in obj if key not in allowed)
    near = difflib.get_close_matches(str(key).lower(), sorted(allowed), n=1)
    hint = f" (did you mean {near[0]!r}?)" if near else ""
    raise DiagramFormatError(f"{path}: unknown key {key!r:.40}{hint}")
