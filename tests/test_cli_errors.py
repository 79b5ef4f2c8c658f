"""Malformed input of every kind ends in a typed error, its exit code and one
stderr line that names the file at fault; never in a traceback.

The fuzz test feeds generated text, bytes and JSON as diagrams, model files,
fit corpora and validation corpora to every subcommand that reads a file
(`reproduce` reads none).
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmetrics.corpus import CorpusError, pair_from_row
from cdmetrics.dsl import to_dict
from cdmetrics.errors import CdmetricsError, DiagramError, DiagramFormatError

from .conftest import run_cli, valid_diagrams, write_files


GOOD_CORPUS = "id,known,computed\na,1,1\nb,2,2\nc,3,3\nd,4,4\n"
GOOD_FIT_CORPUS = "NA,NM,rating\n1,2,3.1\n2,1,3.9\n3,5,5.2\n4,3,6.1\n"
# Finite weights whose estimate for two attributes overflows to inf.
OVERFLOWING_MODEL = json.dumps({"intercept": 1e308, "coefficients": {"NA": 1e308}})
TWO_ATTRIBUTES = "class A {\n  attr x\n  attr y\n}\n"

# (files, argv, exit code, the file at fault): one case per malformed input
# that used to end in a traceback, a wrong exit code or a wrong message.
CASES = {
    "json_unknown_kind": (
        {"d.json": json.dumps({"classes": [{"name": "A"}, {"name": "B"}],
                               "relationships": [{"kind": "inherits", "from": "A", "to": "B"}]})},
        ["metrics", "d.json"], 2, "d.json"),
    "json_top_level_list": ({"d.json": "[]"}, ["metrics", "d.json"], 2, "d.json"),
    "json_missing_name": (
        {"d.json": json.dumps({"classes": [{"attributes": []}]})},
        ["metrics", "d.json"], 2, "d.json"),
    "json_missing_to": (
        {"d.json": json.dumps({"classes": [{"name": "A"}],
                               "relationships": [{"kind": "association", "from": "A"}]})},
        ["estimate", "d.json"], 2, "d.json"),
    "json_third_relationship_bad": (
        {"bad_rel.json": json.dumps({
            "classes": [{"name": "A"}, {"name": "B"}],
            "relationships": [{"kind": "association", "from": "A", "to": "B"},
                              {"kind": "dependency", "from": "B", "to": "A"},
                              {"kind": "association", "from": "A", "to": 5}]})},
        ["metrics", "bad_rel.json"], 2, "bad_rel.json: relationships[2].to: expected str"),
    "json_duplicate_attributes": (
        {"d.json": json.dumps({"classes": [{"name": "A", "attributes": ["x", "x"]}]})},
        ["metrics", "d.json"], 2, "d.json"),
    "json_integer_id": ({"d.json": json.dumps({"id": 5, "classes": []})},
                        ["metrics", "d.json"], 2, "d.json"),
    "json_attribute_not_identifier": (
        {"bad.json": '{"classes": [{"name": "A", "attributes": [1]}]}'}, ["metrics", "bad.json"],
        2, "bad.json: classes[0].attributes: expected an identifier"),
    "json_non_ascii_class_name": ({"uni.json": '{"classes": [{"name": "\u017f"}]}'},
                                  ["metrics", "uni.json"], 2,
                                  "uni.json: classes[0].name: expected an identifier"),
    "json_attributes_string": (
        {"d.json": json.dumps({"classes": [{"name": "A", "attributes": "abc"}]})},
        ["metrics", "d.json"], 2, "d.json"),
    "json_repeated_key": (
        {"d.json": '{"id": "d", "classes": [{"name": "A", "attributes": ["x"]}], "classes": []}'},
        ["metrics", "d.json"], 2, "d.json: key 'classes' named twice"),
    "json_misspelt_key": (
        {"d.json": json.dumps({"classes": [{"name": "A", "attribute": ["x"]}]})},
        ["metrics", "d.json"], 2, "d.json: classes[0]: unknown key 'attribute'"),
    "cd_generalization_cycle": (
        {"cycle.cd": "class A {}\nclass B {}\ngen A => B\ngen B => A\n"},
        ["metrics", "cycle.cd"], 3, "cycle.cd: generalization cycle: A -> B -> A"),
    "cd_duplicate_attribute": ({"dup.cd": "class A {\n  attr x\n  attr x\n}\n"},
                               ["metrics", "dup.cd"], 2,
                               "dup.cd:3:8: duplicate attr name 'x' in class 'A'"),
    "cd_unknown_keyword": ({"bad.cd": "clazz A {}\n"}, ["metrics", "bad.cd"], 2,
                           "bad.cd:1:1: unknown keyword 'clazz'"),
    "cd_missing_file": ({}, ["metrics", "missing.cd"], 2, "missing.cd: No such file or directory"),
    "cd_not_utf8": ({"d.cd": b"class A {}\n\xff\n"}, ["metrics", "d.cd"], 2, "d.cd"),
    "cd_non_ascii_class_name": ({"uni.cd": "class caf\u00e9 {}\n"}, ["metrics", "uni.cd"], 2,
                                "uni.cd:1:7: illegal identifier 'caf\u00e9' for class name"),
    "cd_unexpected_token": ({"bad.cd": "class A {\n  attr x y\n}\n"}, ["metrics", "bad.cd"], 2,
                            "bad.cd:2:10: unexpected token 'y'"),
    "cd_unterminated_body": ({"open.cd": "class A {\n  attr x\n\n# trailing\n"},
                             ["metrics", "open.cd"], 2,
                             "open.cd:2:9: unterminated body of class 'A'"),
    "cd_missing_class_name": ({"miss.cd": "class A {}\ngen A =>\n"}, ["metrics", "miss.cd"], 2,
                              "miss.cd:2:9: expected class name"),
    "cd_late_diagram_header": (
        {"late.cd": "class A {}\ndiagram d\n"}, ["metrics", "late.cd"], 2,
        "late.cd:2:1: 'diagram' header allowed only as the first construct"),
    "cd_repeated_class": ({"repeated.cd": "class A {}\nclass B {}\nclass B {}\nclass A {}\n"},
                          ["metrics", "repeated.cd"], 3,
                          "repeated.cd: class 'B' declared more than once"),
    "cd_duplicate_aggregation_edge": (
        {"duplicate.cd": "class A {}\nclass B {}\nagg A o- B\nagg A o- B\n"},
        ["metrics", "duplicate.cd"], 3, "duplicate.cd: duplicate aggregation edge A -> B"),
    "fit_corpus_infinite_predictor": ({"c.csv": "NA,rating\ninf,1\n1,2\n2,3\n"},
                                      ["fit", "c.csv", "--predictors", "NA"], 4, "c.csv"),
    "fit_corpus_not_utf8": ({"c.csv": b"NA,rating\n1,2\n\xff,3\n"},
                            ["fit", "c.csv", "--predictors", "NA"], 4, "c.csv"),
    "validate_row_without_value": (
        {"v.csv": "id,known,computed\na,1,\nb,2,2\n"}, ["validate", "v.csv"], 4, "v.csv:2:"),
    "validate_blank_line_before_row_without_value": (
        {"blank_line.csv": "id,known,computed\na,1,1.2\n\nb,2,\nc,3,3.4\n"},
        ["validate", "blank_line.csv"], 4,
        "blank_line.csv:4: need a 'computed' or 'diagram' value"),
    "validate_blank_lines_before_header": (
        {"vb.csv": "\n\nid,known,computed\na,1,\nb,2,2\n"}, ["validate", "vb.csv"], 4,
        "vb.csv:4: need a 'computed' or 'diagram' value"),
    "validate_constant_known": (
        {"constant.csv": "id,known,computed\na,3,1.2\nb,3,1.9\nc,3,3.4\nd,3,3.9\ne,3,5.1\n"},
        ["validate", "constant.csv"], 4,
        "constant.csv: column 'known' is constant: no r_s in rank mode"),
    "validate_bad_known": (
        {"v.csv": "id,known,computed\na,x,1\nb,2,2\n"}, ["validate", "v.csv"], 4,
        "v.csv: bad numeric value for column 'known': 'x'"),
    # computed, or its diagram, is read before known: that fault is the one named.
    "validate_bad_known_and_computed": (
        {"v.csv": "id,known,computed\na,x,y\nb,2,2\n"}, ["validate", "v.csv"], 4,
        "v.csv: bad numeric value for column 'computed': 'y'"),
    "validate_bad_known_and_diagram": (
        {"v.csv": "id,known,diagram\na,x,bad.cd\nb,2,bad.cd\n", "bad.cd": "clazz A {}\n"},
        ["validate", "v.csv"], 2, "bad.cd:1:1: unknown keyword 'clazz'"),
    "validate_non_finite_computed": ({"v.csv": "id,known,computed\na,1,inf\nb,2,2\n"},
                                     ["validate", "v.csv"], 4, "v.csv"),
    "validate_missing_known": ({"v.csv": "id,computed\na,1\nb,2\n"},
                               ["validate", "v.csv"], 4, "v.csv: missing 'known' column"),
    # Neither value column either: the missing known is the fault named.
    "validate_neither_known_nor_value_column": ({"v.csv": "id,nope\nx,1\n"},
                                                ["validate", "v.csv"], 4,
                                                "v.csv: missing 'known' column"),
    "validate_no_computed_or_diagram_column": (
        {"v.csv": "id,known\na,1\nb,2\n"}, ["validate", "v.csv"], 4,
        "v.csv: need a 'computed' or 'diagram' column"),
    "validate_bad_model": (
        {"v.csv": GOOD_CORPUS, "m.model": "{bad"},
        ["validate", "v.csv", "--model", "m.model"], 4, "m.model"),
    "validate_dsl_error_in_named_diagram": (
        {"v.csv": "id,known,diagram\na,1,bad.cd\nb,2,bad.cd\n", "bad.cd": "clazz A\n"},
        ["validate", "v.csv"], 2, "bad.cd:1:1:"),
    "validate_cycle_in_named_diagram": (
        {"v.csv": "id,known,diagram\na,1,c.cd\nb,2,c.cd\n",
         "c.cd": "class A {}\nclass B {}\ngen A => B\ngen B => A\n"},
        ["validate", "v.csv"], 3, "c.cd"),
    "json_nested_too_deep": ({"d.json": "[" * 100_000 + "]" * 100_000},
                             ["metrics", "d.json"], 2, "d.json"),
    "model_not_json": (
        {"m.model": "{not json", "e.cd": "class A {}"}, ["estimate", "--model", "m.model", "e.cd"],
        4, "m.model: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "model_number_too_large": (
        {"m.model": '{"intercept": 1' + "0" * 400 + ', "coefficients": {}}', "e.cd": "class A {}"},
        ["estimate", "--model", "m.model", "e.cd"], 4, "m.model"),
    "corpus_row_longer_than_header": ({"c.csv": "NA,rating\n1,2\n3,4,5\n"},
                                      ["fit", "c.csv", "--predictors", "NA"], 4, "c.csv:3:"),
    "corpus_field_too_large": ({"c.csv": "NA,rating\n1,2\n" + "1" * 200_000 + ",3\n"},
                               ["fit", "c.csv", "--predictors", "NA"], 4, "c.csv:3:"),
    "corpus_tab_separated_row_longer_than_header": (
        {"c.tsv": "NM\tNA\trating\n1\t7\t0\n-2\t0\t8\t5\n9\t9\t-2\n4\t1\t3\n"},
        ["fit", "c.tsv", "--predictors", "NM,NA"], 4, "c.tsv:3: more fields than the header"),
    "corpus_semicolon_separated_row_longer_than_header": (
        {"c.csv": "NM;NA;rating\n1;7;0\n-2;0;8;5\n9;9;-2\n4;1;3\n"},
        ["fit", "c.csv", "--predictors", "NM,NA"], 4, "c.csv:3: more fields than the header"),
    "fit_corpus_header_only_unknown_column": (
        {"header_only.csv": "x,rating\n"}, ["fit", "header_only.csv", "--predictors", "NA"], 4,
        "header_only.csv: unknown metric name(s): ['x']"),
    "fit_corpus_without_rating": ({"f.csv": "NA,NM\n1,2\n2,1\n3,5\n"},
                                  ["fit", "f.csv", "--predictors", "NA,NM"], 4,
                                  "f.csv: missing 'rating' column"),
    "fit_corpus_empty": ({"f.csv": ""}, ["fit", "f.csv", "--predictors", "NA"], 4,
                         "f.csv: empty corpus"),
    "validate_blank_lines_only": ({"v.csv": "\n\n\n"}, ["validate", "v.csv"], 4,
                                  "v.csv: empty corpus"),
    # A line of only spaces before the header is a blank line, skipped and counted.
    "validate_space_lines_only": ({"v.csv": "\n\n  \n\n"}, ["validate", "v.csv"], 4,
                                  "v.csv: empty corpus"),
    "validate_space_line_before_header": (
        {"v.csv": "  \nid,known,computed\na,1,1\nb,2,\nc,3,3\n"}, ["validate", "v.csv"], 4,
        "v.csv:4: need a 'computed' or 'diagram' value"),
    "fit_space_lines_only": ({"f.csv": " \t \n  "}, ["fit", "f.csv", "--predictors", "NA"], 4,
                             "f.csv: empty corpus"),
    "fit_space_line_before_header": (
        {"f.csv": "  \r\nNA,rating\r\n1,2\r\n3,4,5\r\n"}, ["fit", "f.csv", "--predictors", "NA"],
        4, "f.csv:4: more fields than the header"),
    "fit_corpus_short_row": (
        {"short_row.csv": "NA,NM,rating\n1,2,3.1\n2,1\n3,5,5.2\n4,3,6.1\n"},
        ["fit", "short_row.csv", "--predictors", "NA,NM"], 4,
        "short_row.csv: bad numeric value for column 'rating': None"),
    "fit_corpus_no_rows": ({"no_rows.csv": "NA,NM,rating\n"},
                           ["fit", "no_rows.csv", "--predictors", "NA,NM"], 4,
                           "no_rows.csv: need at least 3 samples, got 0"),
    "fit_corpus_duplicate_column": (
        {"dup.csv": "NA,NA,rating\n1,5,2\n2,1,3\n3,7,4\n4,2,5\n"},
        ["fit", "dup.csv", "--predictors", "NA"], 4, "dup.csv: duplicate column 'NA'"),
    "validate_duplicate_column": (
        {"v.csv": "id,known,known,computed\na,1,4,1\nb,2,3,2\nc,3,2,3\nd,4,1,4\n"},
        ["validate", "v.csv"], 4, "v.csv: duplicate column 'known'"),
    "estimate_model_overflows": (
        {"m.model": OVERFLOWING_MODEL, "e.cd": TWO_ATTRIBUTES},
        ["estimate", "--model", "m.model", "e.cd"], 4, "m.model: model gives a non-finite"),
    "validate_model_overflows": (
        {"v.csv": "id,known,diagram\na,1,e.cd\nb,2,e.cd\n", "m.model": OVERFLOWING_MODEL,
         "e.cd": TWO_ATTRIBUTES},
        ["validate", "v.csv", "--model", "m.model"], 4, "m.model: model gives a non-finite"),
    "model_string_intercept": (
        {"m.model": '{"intercept": "1.5", "coefficients": {}}', "e.cd": "class A {}"},
        ["estimate", "--model", "m.model", "e.cd"], 4,
        "m.model: intercept: expected a finite number, got '1.5'"),
    "model_bool_weight": (
        {"m.model": '{"intercept": 1, "coefficients": {"NA": true}}', "e.cd": "class A {}"},
        ["estimate", "--model", "m.model", "e.cd"], 4,
        "m.model: coefficients.NA: expected a finite number, got True"),
    "model_coefficients_list": (
        {"m.model": '{"intercept": 1, "coefficients": [["NA", 1]]}', "e.cd": "class A {}"},
        ["estimate", "--model", "m.model", "e.cd"], 4, "m.model: coefficients: expected dict"),
    "model_nan": ({"m.model": '{"intercept": NaN, "coefficients": {}}', "e.cd": "class A {}"},
                  ["estimate", "--model", "m.model", "e.cd"], 4, "m.model: intercept:"),
    "model_infinity": (
        {"m.model": '{"intercept": 1, "coefficients": {"NA": Infinity}}', "e.cd": "class A {}"},
        ["estimate", "--model", "m.model", "e.cd"], 4, "m.model: coefficients.NA:"),
    "model_float_too_large": (
        {"m.model": '{"intercept": 1e400, "coefficients": {}}', "e.cd": "class A {}"},
        ["estimate", "--model", "m.model", "e.cd"], 4, "m.model: intercept:"),
    "model_unknown_name": (
        {"m.model": '{"intercept": 1, "coefficients": {"XX": 1}}', "e.cd": "class A {}"},
        ["estimate", "--model", "m.model", "e.cd"], 4,
        "m.model: coefficients: unknown metric name 'XX'"),
    "model_repeated_name": (
        {"m.model": '{"intercept": 1, "coefficients": {"NA": 1, "NA": 5}}', "e.cd": "class A {}"},
        ["estimate", "--model", "m.model", "e.cd"], 4, "m.model: key 'NA' named twice"),
    "fit_corpus_without_predictor": ({"f.csv": "NA,rating\n1,2\n2,3\n3,5\n"},
                                     ["fit", "f.csv", "--predictors", "NA,NM"], 4,
                                     "f.csv: sample missing predictor(s): ['NM']"),
    "fit_predictor_not_in_corpus": ({"fit.csv": GOOD_FIT_CORPUS + "5,4,6.8\n"},
                                    ["fit", "fit.csv", "--predictors", "NA,NC"], 4,
                                    "fit.csv: sample missing predictor(s): ['NC']"),
    "fit_corpus_one_row": ({"f.csv": "NA,rating\n1,2\n"}, ["fit", "f.csv", "--predictors", "NA"],
                           4, "f.csv: need at least 2 samples, got 1"),
    "fit_corpus_constant_predictor": ({"f.csv": "NA,rating\n1,2\n1,3\n1,4\n"},
                                      ["fit", "f.csv", "--predictors", "NA"], 4,
                                      "f.csv: design columns are linearly dependent"),
    "fit_corpus_fewer_rows_than_coefficients": (
        {"short.csv": "NAssoc,NA,MaxDIT,rating\n0,0,0,1\n1,0,0,2\n0,1,0,3\n"},
        ["fit", "short.csv", "--predictors", "NAssoc,NA,MaxDIT"], 4,
        "short.csv: need at least 4 samples, got 3"),
    "fit_corpus_collinear_predictors": (
        {"singular.csv": "NA,NM,rating\n1,1,2\n2,2,3\n3,3,4\n4,4,5\n"},
        ["fit", "singular.csv", "--predictors", "NA,NM"], 4,
        "singular.csv: design columns are linearly dependent"),
    "fit_corpus_non_finite_solution": ({"f.csv": "NA,rating\n0,-1.7e308\n1,1.7e308\n"},
                                       ["fit", "f.csv", "--predictors", "NA"], 4,
                                       "f.csv: model weights must be finite"),
    "validate_one_row": ({"v.csv": "id,known,computed\na,1,1\n"}, ["validate", "v.csv"], 4,
                         "v.csv: need at least 2 pairs, got 1"),
    "validate_value_mode_overflows": (
        {"v.csv": "id,known,computed\na,1,1e200\nb,2,2\nc,3,3\nd,4,4\n"},
        ["validate", "v.csv", "--mode", "value"], 4,
        "v.csv: differences too large: r_s overflows in value mode"),
    "metrics_every_input_failed": ({"bad.cd": "clazz A\n"}, ["metrics", "bad.cd"], 2,
                                   "bad.cd:1:1: unknown keyword 'clazz'"),
    # --quiet drops the report, not the error or its exit code.
    "quiet_metrics_every_input_failed": ({"bad.cd": "clazz A\n"}, ["--quiet", "metrics", "bad.cd"],
                                         2, "bad.cd:1:1: unknown keyword 'clazz'"),
    "estimate_every_input_failed": ({"bad.cd": "clazz A\n"}, ["estimate", "bad.cd"], 2, "bad.cd"),
}


@pytest.mark.parametrize("case", CASES)
def test_malformed_input_is_one_line_naming_the_file_once(tmp_path, monkeypatch, case):
    files, argv, code, fault = CASES[case]
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path, files)
    got, out, err = run_cli(argv)
    assert got == code, err
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(fault) and err.count(fault.split(":")[0]) == 1
    others = [name for name in files if name not in fault]
    assert all(name not in err for name in others), err


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf", "x"])
def test_tolerance_out_of_range_is_usage_error(tolerance):
    code, out, err = run_cli(["reproduce", "--tolerance", tolerance])
    assert code == 1 and out == ""
    assert err.startswith("usage:") and "--tolerance" in err and "must be a number in" in err


@pytest.mark.parametrize("predictors, named", [
    ("NA,NA", "'NA'"), ("NM, NA ,NM", "'NM'"), ("XX", "'XX'"), ("NA,XX", "'XX'"),
    ("NA,na", "'na'"), (",", "no metric"), ("", "no metric"),
])
def test_bad_predictors_are_usage_errors(tmp_path, monkeypatch, predictors, named):
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path, {"fit.csv": GOOD_FIT_CORPUS})
    code, out, err = run_cli(["fit", "fit.csv", "--predictors", predictors])
    assert code == 1 and out == ""
    assert err.startswith("usage:") and "--predictors" in err.splitlines()[-1]
    assert named in err.splitlines()[-1]


def test_predictor_names_are_stripped_and_empty_ones_dropped(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path, {"fit.csv": GOOD_FIT_CORPUS})
    code, out, err = run_cli(["fit", "fit.csv", "--predictors", " NM, ,NA,"])
    assert (code, err) == (0, "")
    assert list(json.loads(out)["coefficients"]) == ["NM", "NA"]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", None, ""])
def test_non_finite_known_is_corpus_error_naming_the_column(value):
    with pytest.raises(CorpusError) as exc:
        pair_from_row({"known": value}, 1.0, "v.csv")
    assert str(exc.value) == f"v.csv: bad numeric value for column 'known': {value!r}"


def _error_types(base):
    """base and every class below it."""
    return [base, *(t for sub in base.__subclasses__() for t in _error_types(sub))]


@pytest.mark.parametrize("error", _error_types(CdmetricsError), ids=lambda t: t.__name__)
def test_each_error_type_carries_its_exit_code(error):
    # The README's ladder: 2 parse error, 3 diagram validation error, 4 bad data.
    expected = (2 if issubclass(error, DiagramFormatError)
                else 3 if issubclass(error, DiagramError) else 4)
    assert error.exit_code == expected
    assert CorpusError in _error_types(CdmetricsError)


# --- fuzzing ----------------------------------------------------------------

NAMES = ["A", "B", "C", "x", "association", "aggregation", "generalization",
         "dependency", "NA", "NM", "9x", ""]
KEYS = ["id", "classes", "relationships", "name", "attributes", "methods", "kind",
        "from", "to", "intercept", "coefficients", "NA", "NM"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(NAMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=24,
)
DSL_LINES = ["diagram d", "class A {}", "class B {", "class C { attr y }", "attr x",
             "method m", "}", "gen A => B", "gen B => A", "agg A o- B", "assoc A -- C",
             "dep C -> A", "gen A =>", "class 9 {}"]
ODD_CELLS = ["2.5", "1e308", "inf", "nan", "", "x", '"']

texts = st.text(max_size=40)
raw = st.binary(max_size=40)
dsl_sources = st.lists(st.sampled_from(DSL_LINES), max_size=8).map("\n".join)
json_sources = json_values.map(json.dumps) | valid_diagrams().map(lambda d: json.dumps(to_dict(d)))
model_sources = st.fixed_dictionaries({
    "intercept": st.integers(-3, 3) | st.floats() | json_values,
    "coefficients": st.dictionaries(st.sampled_from(["NA", "NM", "NAssoc", "x"]), st.floats()),
}).map(json.dumps)


@st.composite
def csv_sources(draw, required, optional):
    """A delimited table of the required columns and some optional ones,
    well formed or with one kind of flaw."""
    flaw = draw(st.sampled_from([None, None, "no column", "odd cells", "ragged rows"]))
    header = required + draw(st.lists(st.sampled_from(optional), unique=True))
    header = draw(st.permutations(header[flaw == "no column":]))
    numbers = [str(i) for i in range(-3, 10)]
    if flaw == "odd cells":
        numbers += ODD_CELLS
    cells = {name: st.sampled_from(numbers) for name in header}
    if "diagram" in header:
        cells.update(diagram=st.sampled_from(["d.cd", "d.json", "nowhere.cd", ""]),
                     computed=st.sampled_from(numbers + [""]))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(cells[name]) for name in header]
        if flaw == "ragged rows":
            row = draw(st.sampled_from([row, row[:-1], row + ["1"]]))
        rows.append(row)
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    return "\n".join(delimiter.join(row) for row in [header, *rows])


fit_corpora = csv_sources(["rating", "NA", "NM"], ["MaxDIT"])
validation_corpora = csv_sources(["known", "computed"], ["id", "diagram"])

COMMANDS = [
    ["metrics", "d.cd"],
    ["--format", "csv", "metrics", "d.json"],
    ["estimate", "--model", "m.model", "d.cd", "d.json"],
    ["fit", "fit.csv", "--predictors", "NA,NM"],
    ["validate", "v.csv", "--model", "m.model"],
    ["--format", "csv", "validate", "--mode", "value", "v.csv"],
]


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({
    "d.cd": st.one_of(dsl_sources, dsl_sources, texts, raw),
    "d.json": st.one_of(json_sources, json_sources, texts, raw),
    "m.model": st.one_of(model_sources, model_sources, json_sources, texts, raw),
    "fit.csv": st.one_of(fit_corpora, fit_corpora, texts, raw),
    "v.csv": st.one_of(validation_corpora, validation_corpora, texts, raw),
}))
def test_fuzzed_inputs_never_end_in_a_traceback(files):
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory, files)
        for argv in COMMANDS:
            argv = [str(Path(directory) / a) if "." in a else a for a in argv]
            code, out, err = run_cli(argv)
            assert code in {0, 2, 3, 4}, (argv, err)
            assert "Traceback" not in err
            if code != 0 and "metrics" not in argv and "estimate" not in argv:
                assert out == "" and err.count("\n") == 1, (argv, err)
