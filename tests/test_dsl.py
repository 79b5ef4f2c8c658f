import copy
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmetrics.diagram import ClassDecl, ClassDiagram, RelKind, Relationship
from cdmetrics.dsl import from_dict, parse, serialize, to_dict
from cdmetrics.errors import DiagramFormatError, DslSyntaxError

from .conftest import valid_diagrams
from .oracles import from_dict_reference, parse_reference


def test_class_body_counts():
    d = parse("class A {\n attr x\n attr y\n method m }\n")
    assert d.classes == (ClassDecl("A", ("x", "y"), ("m",)),)


def test_generalization_direction():
    d = parse("class A {}\nclass B {}\ngen B => A\n")
    assert len(d.classes) == 2
    assert d.relationships == (Relationship(RelKind.GENERALIZATION, "B", "A"),)


def test_malformed_arrow_is_syntax_error():
    with pytest.raises(DslSyntaxError) as exc:
        parse("class A {}\nclass B {}\nassoc A --> B\n")
    assert exc.value.span.line == 3
    assert exc.value.span.column == 9


def test_unknown_keyword():
    with pytest.raises(DslSyntaxError) as exc:
        parse("clazz A {}\n")
    assert (exc.value.span.line, exc.value.span.column) == (1, 1)


def test_unterminated_class_body():
    with pytest.raises(DslSyntaxError) as exc:
        parse("class A {\n attr x\n")
    assert "unterminated" in str(exc.value)


def test_illegal_identifier():
    with pytest.raises(DslSyntaxError) as exc:
        parse("class 9lives {}\n")
    assert exc.value.span.column == 7


def test_diagram_header():
    assert parse("diagram billing\n").id == "billing"
    assert parse("").id == "unnamed"
    with pytest.raises(DslSyntaxError):
        parse("class A {}\ndiagram late\n")


def test_comments_and_blank_lines_ignored():
    src = "# leading comment\n\ndiagram d  # trailing\n\nclass A {} # another\n"
    assert parse(src) == parse("diagram d\nclass A {}\n")
    assert parse("class A {  # c\n  attr x # c\n}\n").classes == (ClassDecl("A", ("x",)),)


def test_crlf_accepted():
    assert parse("diagram d\r\nclass A {}\r\n") == parse("diagram d\nclass A {}\n")


def test_empty_diagram_serialization():
    assert serialize(ClassDiagram()) == "diagram unnamed\n"


def test_canonical_section_order():
    src = (
        "diagram mix\n"
        "class A {}\nclass B {}\n"
        "gen B => A\ndep A -> B\nagg A o- B\nassoc A -- B\n"
    )
    expected = (
        "diagram mix\n"
        "class A {}\nclass B {}\n"
        "assoc A -- B\nagg A o- B\ndep A -> B\ngen B => A\n"
    )
    assert serialize(parse(src)) == expected


def test_all_constructs_round_trip():
    src = (
        "diagram full\n"
        "class A {\n  attr x\n  method m\n}\n"
        "class B {}\n"
        "assoc A -- B\nagg A o- B\ndep A -> B\ngen B => A\n"
    )
    d = parse(src)
    assert serialize(d) == src
    assert parse(serialize(d)) == d


@given(valid_diagrams())
def test_round_trip_random(d):
    assert parse(serialize(d)) == d


@given(valid_diagrams())
def test_structured_data_round_trip(d):
    assert from_dict(to_dict(d)) == d


def test_structured_field_names():
    d = parse("diagram x\nclass A { attr a\n method m }\nclass B {}\ngen B => A\n")
    obj = to_dict(d)
    assert set(obj) == {"id", "classes", "relationships"}
    assert obj["classes"][0] == {"name": "A", "attributes": ["a"], "methods": ["m"]}
    assert obj["relationships"] == [
        {"kind": "generalization", "from": "B", "to": "A"}
    ]


@pytest.mark.parametrize("member", ["attr", "method"])
def test_duplicate_member_is_syntax_error_at_duplicate(member):
    with pytest.raises(DslSyntaxError) as exc:
        parse(f"class A {{\n  {member} x\n  {member} x\n}}\n")
    assert (exc.value.span.line, exc.value.span.column) == (3, len(member) + 4)
    assert "duplicate" in str(exc.value)


def test_duplicate_member_check_is_linear():
    # A list scan per member took about 14 s for 40 000 attributes.
    source = "class A {\n" + "".join(f"  attr a{i}\n" for i in range(10**5)) + "}\n"
    start = time.perf_counter()
    d = parse(source)
    assert time.perf_counter() - start < 5.0
    assert d.classes[0].attributes[-1] == "a99999"


@pytest.mark.parametrize("source,line,column,message", [
    ("class A { attr x } junk\n", 1, 20, "unexpected token 'junk'"),
    ("class A {\n attr x } junk\n", 2, 11, "unexpected token 'junk'"),
    ("class A { } junk\n", 1, 13, "unexpected token 'junk'"),
    ("class A {\n  class B {}\n}\n", 2, 3, "in class body, got 'class'"),
    ("class A {}\n}\n", 2, 1, "unknown keyword '}'"),
    ("class A {\n  attr x y\n}\n", 2, 10, "unexpected token 'y'"),
    ("\tclass\tA\t{}\tjunk\n", 1, 13, "unexpected token 'junk'"),
    ("class A {\n\tattr\t9x\n}\n", 2, 7, "illegal identifier '9x'"),
    ("class A {# note\n", 1, 10, "unterminated body of class 'A'"),
    ("class A {\n  attr x\n\n# trailing\n   \n", 2, 9, "unterminated body of class 'A'"),
    ("class A {\r\n  attr x # note\r\n\r\n", 2, 9, "unterminated body of class 'A'"),
    ("class A { # opens\n  attr x\n", 2, 9, "unterminated body of class 'A'"),
    # Lines of a common shape that fail one of its checks.
    ("class 9x {\n", 1, 7, "illegal identifier '9x' for class name"),
    ("class A {}\nclass B {}\ngen A -> B\n", 3, 7, "expected arrow '=>'"),
    ("class A {}\nassoc A -- 9B\n", 2, 12, "illegal identifier '9B' for class name"),
    ("class A {\n  method é\n}\n", 2, 10, "illegal identifier 'é' for method name"),
    # A missing token is reported just past the line's last token.
    ("class", 1, 6, "expected class name"),
    ("class A", 1, 8, "expected class body opener '{'"),
    ("assoc A", 1, 8, "expected arrow '--'"),
    ("gen A =>", 1, 9, "expected class name"),
    ("diagram", 1, 8, "expected diagram name"),
    ("class A {\n  attr\n}", 2, 7, "expected attr name"),
    # A token too many, a misplaced header, and a `}` where a name belongs.
    ("diagram d e", 1, 11, "unexpected token 'e'"),
    ("class A {}\ndiagram d", 2, 1, "'diagram' header allowed only as the first construct"),
    ("class A { method }", 1, 18, "illegal identifier '}' for method name"),
    ("agg A o- B C", 1, 12, "unexpected token 'C'"),
])
def test_body_form_error_spans(source, line, column, message):
    with pytest.raises(DslSyntaxError) as exc:
        parse(source)
    assert (exc.value.span.line, exc.value.span.column) == (line, column)
    assert message in str(exc.value)


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
def test_lines_end_only_at_newlines(brk):
    # Line numbers count \n, \r\n and \r, as an editor does; other line
    # breaks are whitespace within a line.
    with pytest.raises(DslSyntaxError) as exc:
        parse(f"class A {{}}{brk}\nclass 9x {{}}\n")
    assert (exc.value.span.line, exc.value.span.column) == (2, 7)
    with pytest.raises(DslSyntaxError) as exc:
        parse(f"class A {{}}{brk}class B {{}}\n")
    assert (exc.value.span.line, exc.value.span.column) == (1, 12)
    assert parse(f"class A {{{brk}attr x{brk}}}\n").classes == (ClassDecl("A", ("x",)),)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_each_newline_form_ends_a_line(end):
    with pytest.raises(DslSyntaxError) as exc:
        parse(f"class A {{}}{end}{end}class 9x {{}}{end}")
    assert (exc.value.span.line, exc.value.span.column) == (3, 7)


def _one_line_bodies(d: ClassDiagram) -> str:
    """DSL for d with each body's first entry on its class line and } after its last."""
    out = [f"diagram {d.id}"]
    for cls in d.classes:
        entries = [f"attr {a}" for a in cls.attributes] + [f"method {m}" for m in cls.methods]
        body = [f"class {cls.name} {{ {entries[0] if entries else ''}", *entries[1:]]
        body[-1] += " }"
        out.extend(body)
    forms = {RelKind.ASSOCIATION: "assoc {} -- {}", RelKind.AGGREGATION: "agg {} o- {}",
             RelKind.DEPENDENCY: "dep {} -> {}", RelKind.GENERALIZATION: "gen {} => {}"}
    out.extend(forms[rel.kind].format(rel.source, rel.target) for rel in d.relationships)
    return "\n".join(out) + "\n"


@given(valid_diagrams())
def test_one_line_body_forms(d):
    assert parse(_one_line_bodies(d)) == parse(serialize(d))


@pytest.mark.parametrize("obj,path", [
    ([], "diagram"),
    ({"id": 5}, "id"),
    ({"classes": "A"}, "classes"),
    ({"classes": [5]}, "classes[0]"),
    ({"classes": [{"name": "A", "attributes": "abc"}]}, "classes[0].attributes"),
    ({"classes": [{"name": "A"}, {"name": "B", "methods": ["9x"]}]}, "classes[1].methods"),
    ({"classes": [{"name": "a b"}]}, "classes[0].name"),
    ({"classes": [{"name": "A", "attributes": ["x", "x"]}]}, "classes[0]"),
    ({"relationships": [{"kind": "inherits", "from": "A", "to": "B"}]}, "relationships[0].kind"),
    ({"relationships": [{"kind": "association", "from": 1, "to": "B"}]}, "relationships[0].from"),
    ({"relationships": [{"kind": "dependency", "from": "A"}]}, "relationships[0].to"),
])
def test_structured_schema_error_names_field_path(obj, path):
    with pytest.raises(DiagramFormatError) as exc:
        from_dict(obj)
    assert str(exc.value).startswith(f"{path}: ")


_KIND_NAMES = "association, aggregation, dependency, generalization"


@pytest.mark.parametrize("obj,message", [
    ({"classes": [{"name": 5, "attributes": "x"}]},
     "classes[0].name: expected an identifier, got 5"),
    ({"classes": [{"name": "A", "attributes": ["x", "x"], "methods": [1]}]},
     "classes[0].methods: expected an identifier, got 1"),
    ({"classes": [{"name": "A", "attributes": ["x", "x"], "methods": ["m", "m"]}]},
     "classes[0]: duplicate attribute name in class 'A'"),
    ({"relationships": [{"kind": "inherits", "from": 1, "to": "B"}]},
     f"relationships[0].kind: expected one of {_KIND_NAMES}, got 'inherits'"),
    ({"relationships": [{"kind": "dependency", "from": None}]},
     "relationships[0].from: expected str, got None"),
    ({"classes": [{"name": "A", "attributes": [True]}]},
     "classes[0].attributes: expected an identifier, got True"),
    ({"classes": [{"name": "A"}, 7], "relationships": "x"}, "classes[1]: expected dict, got 7"),
    ({"id": "9", "classes": "x"}, "id: expected an identifier, got '9'"),
    ({"classes": [{"name": "A"}, {"name": "B"}],
      "relationships": [{"kind": "association", "from": "A", "to": "B"},
                        {"kind": "dependency", "from": "B", "to": "A"},
                        {"kind": "association", "from": "A", "to": 5}]},
     "relationships[2].to: expected str, got 5"),
    ({"relationships": [{"kind": "association", "from": "A", "to": "B"}, ["x"]]},
     "relationships[1]: expected dict, got ['x']"),
    ({"classes": [{"name": "A", "methods": ["m", "n"]}, {"name": "B", "attributes": ["m"]},
                  {"name": "C", "attributes": ["x"], "methods": ["m", "n", "m"]}]},
     "classes[2]: duplicate method name in class 'C'"),
    ({"classes": [{"name": "A", "attributes": [None], "methods": [1]}]},
     "classes[0].attributes: expected an identifier, got None"),
    # A key the schema does not name, checked after the object's type and before its fields.
    ({"classes": [{"name": "A", "attribute": ["x"]}]},
     "classes[0]: unknown key 'attribute' (did you mean 'attributes'?)"),
    ({"classes": [{"name": "A"}, {"nam": 5}]}, "classes[1]: unknown key 'nam' (did you mean 'name'?)"),
    ({"classes": [{"name": "A"}], "relationship": [{"kind": "x"}], "id": 5},
     "diagram: unknown key 'relationship' (did you mean 'relationships'?)"),
    ({"relationships": [{"kind": "inherits", "From": "A", "to": "B"}]},
     "relationships[0]: unknown key 'From' (did you mean 'from'?)"),
    ({"relationships": [{"kind": "association", "from": "A", "to": "B", "label": "x"}]},
     "relationships[0]: unknown key 'label'"),
    ({"relationships": [{"kind": "association", "from": "A", "To": "B"}]},
     "relationships[0]: unknown key 'To' (did you mean 'to'?)"),
    ({"classes": [7, {"extra": 1}]}, "classes[0]: expected dict, got 7"),
])
def test_structured_schema_error_is_the_first_failing_check(obj, message):
    with pytest.raises(DiagramFormatError) as exc:
        from_dict(obj)
    assert str(exc.value) == message


def test_structured_kind_is_matched_in_any_case():
    obj = {"classes": [{"name": "A"}, {"name": "B"}],
           "relationships": [{"kind": "GENERALIZATION", "from": "B", "to": "A"},
                             {"kind": "Association", "from": "A", "to": "B"}]}
    assert from_dict(obj).relationships == (Relationship(RelKind.GENERALIZATION, "B", "A"),
                                            Relationship(RelKind.ASSOCIATION, "A", "B"))


# Mutations for the JSON differential test.  A mutation picks one container
# of the diagram object (the object itself, a class or relationship, or a
# list) and sets, deletes, appends, replaces or repeats one of its entries,
# with a value drawn from wrong container types, bools, numbers, None, bad
# identifiers, names the diagram uses, and case variants of a kind.  Its key
# is one the schema names, at this level or another, or a key it does not name.
_JSON_VALUES = [[], {}, (), "", "9x", "a b", "x\n", "\u00e9", "\u017f", "\u212a", "x\u0663",
                "A", "x", "m", True, False, 0, 1, 2.5, None, "association", "GENERALIZATION",
                "Dependency", "aggregatioN", "inherits", ["x", "x"], [1], [True], {"name": "A"},
                {"kind": "dependency"}]
_JSON_KEYS = ["id", "classes", "relationships", "name", "attributes", "methods", "kind",
              "from", "to", "attribute", "relationship", "Kind", "x"]
_JSON_EDITS = ["set", "delete", "append", "repeat"]


def _containers(obj) -> list:
    """obj and every dict and list in it, depth first."""
    found, stack = [], [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            found.append(node)
            stack.extend(node.values() if isinstance(node, dict) else node)
    return found


def _mutated_object(obj, edits):
    for op, at, key, index, value in edits:
        containers = _containers(obj)
        if not containers:
            break
        node, value = containers[at % len(containers)], copy.deepcopy(value)
        if isinstance(node, dict):
            if op == "delete":
                node.pop(key, None)
            else:
                node[key] = value
        elif op == "append":
            node.append(value)
        elif node and op == "repeat":  # a member list with a repeat is an error
            node.append(node[index % len(node)])
        elif node and op == "delete":
            del node[index % len(node)]
        elif node:
            node[index % len(node)] = value
    return obj


def _read(reader, obj):
    try:
        d = reader(obj)
    except Exception as exc:  # any error: the two readers must fail alike
        return type(exc), str(exc)
    records = d.classes + d.relationships
    return d.id, d.classes, d.relationships, [type(r) for r in records]


@settings(max_examples=1000, deadline=None)
@given(valid_diagrams(max_classes=4),
       st.lists(st.tuples(st.sampled_from(_JSON_EDITS), st.integers(0, 40),
                          st.sampled_from(_JSON_KEYS), st.integers(0, 8),
                          st.sampled_from(_JSON_VALUES)), min_size=1, max_size=3),
       st.sampled_from([None, str.upper, str.title]))
def test_from_dict_agrees_with_the_reference_reader(d, edits, case):
    # from_dict checks each item in place; from_dict_reference calls a helper
    # per item and field.  Diagrams, or errors with type and message, match.
    obj = to_dict(d)
    if case is not None:
        for rel in obj["relationships"]:
            rel["kind"] = case(rel["kind"])
    obj = _mutated_object(obj, edits)
    assert _read(from_dict, obj) == _read(from_dict_reference, obj)


# Line vocabulary for the differential test: each group up to the blank line
# is valid DSL on its own, so an unmutated list of groups often parses.  The
# two after it leave a body open and repeat a member, and the last six each
# miss a token.  A line is its tokens.
_GROUPS = [
    [["diagram", "d"]],
    [["class", "A", "{"], ["attr", "x"], ["method", "m"], ["}"]],
    [["class", "B", "{"], ["attr", "x"], ["attr", "y"], ["}"]],
    [["class", "C", "{}"]],
    [["class", "D", "{", "attr", "x"], ["method", "m", "}"]],
    [["class", "E", "{", "}"]],
    [["class", "F", "{", "method", "m", "}"]],
    [["class", "G", "{", "#", "c"], ["attr", "x#c"], ["method", "m", "#", "c"], ["}"]],
    [["assoc", "A", "--", "B"]],
    [["agg", "A", "o-", "B"]],
    [["dep", "B", "->", "A"]],
    [["gen", "B", "=>", "A"]],
    [["#", "comment"]],
    [[]],
    [["class", "U", "{"], ["attr", "x"]],
    [["class", "H", "{"], ["method", "x"], ["attr", "x"], ["attr", "x"], ["}"]],
    [["class"]],
    [["class", "K"]],
    [["diagram"]],
    [["gen", "B", "=>"]],
    [["assoc", "A"]],
    [["class", "L", "{"], ["attr"], ["}"]],
]
# Token edits: (operation, position), at a line and with a token drawn apart;
# line and position wrap around.  Small sampled_from sets draw evenly.
_EDITS = [(op, pos) for op in ("drop", "insert", "replace") for pos in range(5)]
_TOKENS = ["9x", "é", "\u017f", "\u212a", "x\u0663", "{}", "{", "}", "--", "o-", "->", "=>",
           "-->", "attr", "method", "class", "gen", "diagram", "A", "x", "#"]
_SEPARATORS = [" ", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\xa0", "\u3000"]
_ENDS = ["\n", "\n", "\r\n", "\r"]


def _mutated_source(groups, edits, at_lines, tokens, separators, ends) -> str:
    lines = [list(line) for group in groups for line in group]
    for i, (op, pos) in enumerate(edits):
        if not lines:
            break
        line = lines[at_lines[i % len(at_lines)] % len(lines)]
        token = tokens[i % len(tokens)]
        if op == "insert":
            line.insert(pos % (len(line) + 1), token)
        elif line and op == "drop":
            del line[pos % len(line)]
        elif line:
            line[pos % len(line)] = token
    return "".join(
        separators[i % len(separators)] * (i % 2)  # indent every other line
        + separators[(i + 1) % len(separators)].join(line) + ends[i % len(ends)]
        for i, line in enumerate(lines)
    )


def _outcome(parser, source):
    try:
        d = parser(source)
    except DslSyntaxError as exc:
        return type(exc), str(exc), exc.span
    return d.id, d.classes, d.relationships


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_GROUPS), max_size=8),
       st.lists(st.sampled_from(_EDITS), max_size=3),
       st.lists(st.sampled_from(range(16)), min_size=1, max_size=3),
       st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=3),
       st.lists(st.sampled_from(_SEPARATORS), min_size=1, max_size=4),
       st.lists(st.sampled_from(_ENDS), min_size=1, max_size=3))
def test_parse_agrees_with_the_reference_parser(groups, edits, at_lines, tokens, separators, ends):
    # parse checks each line's tokens in place; parse_reference builds a _Line
    # for every line.  Results, or errors with message and span, match.
    source = _mutated_source(groups, edits, at_lines, tokens, separators, ends)
    assert _outcome(parse, source) == _outcome(parse_reference, source)


# Values that str.isidentifier() accepts and the identifier grammar does not
# (letters and a digit of other scripts), then values that are no identifier
# at all; the last three are not a single DSL token either.
_NOT_IDENTIFIERS = ["\u00e9", "\u017f", "\u212a", "\u00aa", "\uff21", "x\u0663", "9x",
                    "", "A\n", "a b"]
# One name slot each.  Every value above is an error in the first two; a value
# that is one token is an error in every slot.
_NAME_SLOTS = ["class {} {{}}\n", "gen {} => A\n", "diagram {}\n", "class A {{ attr {} }}\n",
               "class A {{\n  method {}\n}}\n", "assoc A -- {}\n"]


@pytest.mark.parametrize("slot", _NAME_SLOTS)
@pytest.mark.parametrize("value", _NOT_IDENTIFIERS)
def test_parse_identifier_grammar(value, slot):
    source = slot.format(value)
    outcome = _outcome(parse, source)
    assert outcome == _outcome(parse_reference, source)
    if value.split() == [value] or slot in _NAME_SLOTS[:2]:
        assert outcome[0] is DslSyntaxError


@pytest.mark.parametrize("slot", ["id", "name", "attributes", "methods"])
@pytest.mark.parametrize("value", _NOT_IDENTIFIERS)
def test_from_dict_identifier_grammar(value, slot):
    obj = {"id": "d", "classes": [{"name": "A", "attributes": ["x"], "methods": ["m"]}]}
    holder = obj if slot == "id" else obj["classes"][0]
    holder[slot] = value if slot in ("id", "name") else [*holder[slot], value]
    with pytest.raises(DiagramFormatError):
        from_dict(obj)
    assert _read(from_dict, obj) == _read(from_dict_reference, obj)


@pytest.mark.parametrize("name", ["_", "A_1"])
def test_identifier_grammar_accepts_underscores_and_digits(name):
    source = (f"diagram {name}\nclass {name} {{ attr {name}\n method {name} }}\n"
              f"gen {name} => {name}\n")
    expected = (name, (ClassDecl(name, (name,), (name,)),),
                (Relationship(RelKind.GENERALIZATION, name, name),))
    assert _outcome(parse, source) == _outcome(parse_reference, source) == expected
    obj = to_dict(ClassDiagram(*expected))
    assert _read(from_dict, obj) == _read(from_dict_reference, obj)
    assert _read(from_dict, obj)[:3] == expected
