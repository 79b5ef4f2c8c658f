"""Independent brute-force reference implementations used only by tests."""

from __future__ import annotations

import csv
import difflib
import io
import math
import random
import re

import networkx as nx

from cdmetrics.corpus import CorpusError
from cdmetrics.diagram import ClassDecl, ClassDiagram, RelKind, Relationship
from cdmetrics.dsl import SourceSpan
from cdmetrics.errors import DiagramFormatError, DslSyntaxError, check
from cdmetrics.metrics import METRIC_NAMES


def longest_path_brute(edges: list[tuple[str, str]], start: str) -> int:
    """Longest simple directed path from start, by full path enumeration."""
    best = 0

    def walk(node: str, visited: frozenset[str], length: int) -> None:
        nonlocal best
        best = max(best, length)
        for src, dst in edges:
            if src == node and dst not in visited:
                walk(dst, visited | {dst}, length + 1)

    walk(start, frozenset([start]), 0)
    return best


def hierarchy_count_brute(edges: list[tuple[str, str]]) -> int:
    """Weakly connected components containing at least one edge, via networkx."""
    graph = nx.Graph()
    graph.add_edges_from(edges)
    return sum(1 for _ in nx.connected_components(graph))


def metrics_brute(diagram: ClassDiagram) -> dict[str, int]:
    """All 11 metrics computed the slow, obvious way."""
    def edges(kind):
        return [(r.source, r.target) for r in diagram.relationships if r.kind is kind]

    gen = edges(RelKind.GENERALIZATION)
    agg = edges(RelKind.AGGREGATION)
    names = [c.name for c in diagram.classes]
    return {
        "NC": len(names),
        "NA": sum(len(c.attributes) for c in diagram.classes),
        "NM": sum(len(c.methods) for c in diagram.classes),
        "NAssoc": len(edges(RelKind.ASSOCIATION)),
        "NAgg": len(agg),
        "NDep": len(edges(RelKind.DEPENDENCY)),
        "NGen": len(gen),
        "NAggH": hierarchy_count_brute(agg),
        "NGenH": hierarchy_count_brute(gen),
        "MaxHAgg": max((longest_path_brute(agg, c) for c in names), default=0),
        "MaxDIT": max((longest_path_brute(gen, c) for c in names), default=0),
    }


def random_diagram(rng: random.Random, max_classes: int = 8) -> ClassDiagram:
    """A random valid diagram: hierarchy edges follow a topological order."""
    n = rng.randint(0, max_classes)
    classes = [
        ClassDecl(
            f"C{i}",
            tuple(f"a{j}" for j in range(rng.randint(0, 3))),
            tuple(f"m{j}" for j in range(rng.randint(0, 3))),
        )
        for i in range(n)
    ]
    names = [c.name for c in classes]
    relationships: list[Relationship] = []

    for kind in (RelKind.GENERALIZATION, RelKind.AGGREGATION):
        order = list(range(n))
        rng.shuffle(order)
        seen: set[tuple[str, str]] = set()
        for _ in range(rng.randint(0, 2 * n)):
            if n < 2:
                break
            i, j = sorted(rng.sample(range(n), 2))
            # edge from later to earlier in the shuffled order keeps it acyclic
            pair = (names[order[j]], names[order[i]])
            if pair not in seen:
                seen.add(pair)
                relationships.append(Relationship(kind, *pair))

    for kind in (RelKind.ASSOCIATION, RelKind.DEPENDENCY):
        for _ in range(rng.randint(0, n)):
            relationships.append(
                Relationship(kind, rng.choice(names), rng.choice(names))
            )

    rng.shuffle(relationships)
    return ClassDiagram(f"d{rng.randrange(10**6)}", tuple(classes), tuple(relationships))


# --- corpora, read one dict per row and one cell at a time by column name ---------

def tabs_before_fields_as_spaces(text: str, delimiter: str) -> str:
    """The text with each tab that stands before a field's first character, and
    outside quotes, made a space: one character at a time through Excel's
    quoting states."""
    out, state = [], "start"  # start of a field, in a field, quoted, a quote in quotes
    for c in text:
        if state == "quoted":
            state = "quote" if c == '"' else "quoted"
        elif state == "quote" and c == '"':  # a doubled quote: still quoted
            state = "quoted"
        elif c in (delimiter, "\r", "\n"):
            state = "start"
        elif state == "start" and c in " \t":
            c = " "
        elif state == "start" and c == '"':
            state = "quoted"
        else:
            state = "field"
        out.append(c)
    return "".join(out)


def read_rows_dictreader(text: str, where: str):
    """Header names, the records as dicts (stripped), and each record's line:
    the corpus reader as it was before it read rows as lists, with the
    delimiter the header line gives (a comma, else a semicolon, else a tab)."""
    # A rule added since: the header is the first line that holds a non-space
    # character, and the lines before it are read as empty lines.
    lines = text.split("\n")
    at = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    text = "\n".join([""] * at + lines[at:])
    header_line = text.lstrip("\n").split("\n")[0]
    delimiter = "," if "," in header_line else ";" if ";" in header_line else "\t"
    # A rule added since: tab padding before a field is skipped as spaces are,
    # so a quote after it opens a quoted cell.
    text = tabs_before_fields_as_spaces(text, delimiter)
    reader = csv.DictReader(io.StringIO(text), delimiter=delimiter, skipinitialspace=True)
    rows, lines = [], []
    try:
        reader.fieldnames = next(filter(None, reader.reader), None)
        if not reader.fieldnames:
            raise CorpusError(f"{where}: empty corpus")
        # The one rule added since: a name the header repeats is an error.
        names = [name.strip() for name in reader.fieldnames]
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise CorpusError(f"{where}: duplicate column {repeated[0]!r}")
        for row in reader:
            if None in row:
                raise CorpusError(f"{where}:{reader.line_num}: more fields than the header")
            rows.append({k.strip(): v.strip() if v else v for k, v in row.items()})
            lines.append(reader.line_num)
    except csv.Error as exc:  # the line the underlying reader stopped on
        raise CorpusError(f"{where}:{reader.reader.line_num}: {exc}") from None
    return [name.strip() for name in reader.fieldnames], rows, lines


def _number_by_column(row: dict, column: str, where: str) -> float:
    try:
        value = float(row[column])
    except (KeyError, TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise CorpusError(f"{where}: bad numeric value for column {column!r}: {row.get(column)!r}")
    return value


def rating_corpus_by_column(text: str, where: str) -> list[tuple[dict, float]]:
    """(predictors, rating) per row of a fit corpus."""
    fieldnames, rows, _ = read_rows_dictreader(text, where)
    if "rating" not in fieldnames:
        raise CorpusError(f"{where}: missing 'rating' column")
    predictors = [name for name in fieldnames if name != "rating"]
    unknown = set(predictors) - set(METRIC_NAMES)
    if unknown:
        raise CorpusError(f"{where}: unknown metric name(s): {sorted(unknown)}")
    samples = []
    for row in rows:
        values = {p: _number_by_column(row, p, where) for p in predictors}
        rating = _number_by_column(row, "rating", where)
        samples.append((values, rating))
    return samples


def validation_rows_by_column(text: str, where: str) -> list[dict]:
    fieldnames, rows, lines = read_rows_dictreader(text, where)
    if "known" not in fieldnames:
        raise CorpusError(f"{where}: missing 'known' column")
    if "computed" not in fieldnames and "diagram" not in fieldnames:
        raise CorpusError(f"{where}: need a 'computed' or 'diagram' column")
    for row, line in zip(rows, lines):
        if not (row.get("computed") or row.get("diagram")):
            raise CorpusError(f"{where}:{line}: need a 'computed' or 'diagram' value")
    return rows


def validation_pairs_by_column(text: str, where: str, estimate) -> list[tuple[float, float]]:
    """(known, computed) per row of a validation corpus: computed read first, by column
    where its cell is not empty and else as estimate(the diagram cell), then known."""
    pairs = []
    for row in validation_rows_by_column(text, where):
        computed = (_number_by_column(row, "computed", where) if row.get("computed")
                    else estimate(row["diagram"]))
        pairs.append((_number_by_column(row, "known", where), computed))
    return pairs


# --- the .cd parser with a `_Line` for every non-blank line -------------------------
# `parse` and `_Line` as they stood before `parse` checked the common line shapes
# in place, unchanged but for the name `parse_reference`.  `parse` must agree with
# it on every input, in its result or in its error's type, message and span.

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_ARROWS = {
    "assoc": ("--", RelKind.ASSOCIATION),
    "agg": ("o-", RelKind.AGGREGATION),
    "dep": ("->", RelKind.DEPENDENCY),
    "gen": ("=>", RelKind.GENERALIZATION),
}


class _Line:
    """A non-blank source line as whitespace tokens; only `fail` needs their columns."""

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


def parse_reference(source: str) -> ClassDiagram:
    """Parse DSL text into an (unvalidated) ClassDiagram in declaration order.

    One pass over the lines: each non-blank line is a top-level construct, or
    a body entry while a class body is open.
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
        code = raw.split("#", 1)[0]
        if not code.strip():
            continue
        line = _Line(number, code)
        tokens = line.tokens
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
        # `line` is the last non-blank line
        line.fail(len(line.tokens), f"unterminated body of class {body[0]!r}")
    return ClassDiagram(diagram_id or "unnamed", tuple(classes), tuple(relationships))


# --- the JSON diagram reader with a helper call per field ----------------------------
# `from_dict` and its helpers as they stood before `from_dict` checked each item in
# place, unchanged but for the name `from_dict_reference` and one rule added since:
# a key the schema does not name is an error, checked just after the object's type.
# `from_dict` must agree with it on every input, in its result or in its error's
# type and message.

_KINDS = {kind.value: kind for kind in RelKind}


def _ident(value, path: str) -> str:
    if isinstance(value, str) and _IDENT.match(value):
        return value
    raise DiagramFormatError(f"{path}: expected an identifier, got {value!r:.40}")


def _known_keys(obj: dict, allowed: tuple, path: str = "") -> dict:
    """obj, if each of its keys is in allowed; else an error naming the first
    other key and the allowed key closest to it in lower case, if one is close."""
    for key in obj:
        if key not in allowed:
            near = difflib.get_close_matches(str(key).lower(), sorted(allowed), n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            raise DiagramFormatError(f"{path}: unknown key {key!r:.40}{hint}")
    return obj


def _class_decl(obj) -> ClassDecl:
    obj = _known_keys(check(obj, dict, DiagramFormatError, ""), ("name", "attributes", "methods"))
    name = _ident(obj.get("name"), ".name")
    members = [
        tuple([_ident(n, path) for n in check(obj.get(key, []), list, DiagramFormatError, path)])
        for key, path in (("attributes", ".attributes"), ("methods", ".methods"))
    ]
    for label, names in zip(("attribute", "method"), members):
        if len(set(names)) != len(names):
            raise DiagramFormatError(f": duplicate {label} name in class {name!r}")
    return ClassDecl(name, *members)


def _relationship(obj) -> Relationship:
    obj = _known_keys(check(obj, dict, DiagramFormatError, ""), ("kind", "from", "to"))
    kind = obj.get("kind")
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


def from_dict_reference(data) -> ClassDiagram:
    """Structured-data import; inverse of to_dict.

    A container or field of the wrong type, a key the schema does not name, an
    unknown relationship kind, or a name outside the DSL identifier grammar
    raises DiagramFormatError with the field's path, such as
    ``classes[0].attributes``.
    """
    _known_keys(check(data, dict, DiagramFormatError, "diagram"),
                ("id", "classes", "relationships"), "diagram")
    return ClassDiagram(
        _ident(data.get("id", "unnamed"), "id"),
        _items(data, "classes", _class_decl),
        _items(data, "relationships", _relationship),
    )
