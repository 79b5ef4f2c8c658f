"""The corpus readers against a reader that builds one dict per row and reads
each cell back by column name (tests/oracles.py): the same samples or rows
on a valid corpus, the same CorpusError message, line included, on a bad one.
The header the readers split is checked against the names the corpus was
written with, and the delimiter and quoting rules against fixed corpora.
"""

import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cdmetrics import corpus as corpus_module
from cdmetrics.cli import main
from cdmetrics.corpus import (CorpusError, _read_rows, load_rating_corpus,
                              parse_validation_rows, validation_pairs)
from cdmetrics.errors import ModelError, read_file
from cdmetrics.regression import fit

from .conftest import fails
from .oracles import (rating_corpus_by_column, validation_pairs_by_column,
                      validation_rows_by_column)

# Cells where numpy's text reader and float() could part: a signed zero and a
# subnormal must keep their bits; float() reads `1_0` and Arabic-Indic digits,
# which numpy's reader refuses; NUL, `#` and a lone carriage return inside a
# row are faults.
NUMBERS = ["0", "1", "-2", "3.5", "1e3", "7", "0.25", "-0", "1e-320"]
FORGIVEN = ["1_0", "\u0661"]
BAD_CELLS = ["nan", "inf", "-inf", "x", "", "1e400", "1,5", "1\n2", '"', "\x00", "1#2", "1\r2"]
TOO_LARGE = "1" * 140_000  # past csv's default field size limit of 131 072
LARGE_ZERO = "0" * 140_000  # as large, and a finite number to numpy's reader


@st.composite
def corpora(draw, required, optional, extra_cells=()):
    """(column names, delimited text) with the required columns in any order,
    and any of: padded, quoted or non-numeric cells, short and long rows,
    blank lines, CRLF and a field too large to read.  Two corpora in three
    quote only the cells that need it, half have no cell only float() reads,
    and half have no padding."""
    names = required + draw(st.lists(st.sampled_from(optional), unique=True))
    names = draw(st.permutations(names))
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    flawed = draw(st.booleans())
    good = NUMBERS + list(extra_cells) + draw(st.sampled_from([[], FORGIVEN]))
    quote_odds = draw(st.sampled_from([0, 0, 6]))  # one cell in so many is quoted; 0: none
    cells = st.sampled_from(good * 4 + BAD_CELLS if flawed else good)

    pad = st.sampled_from(["", "", " ", "  ", "\t"])
    # Whitespace that str.strip takes and csv keeps: vertical tab, form feed, an
    # information separator, NEL, en quad and no-break space.
    inner_pad = pad | st.sampled_from(["\x0b", "\x0c", "\x1c", "\x85", "\u2000", "\xa0"])
    if not draw(st.booleans()):
        pad = inner_pad = st.just("")

    def render(cell):
        cell = draw(inner_pad) + cell + draw(inner_pad)
        if any(c in cell for c in f"{delimiter}\n\"") or quote_odds and draw(
                st.integers(1, quote_odds)) == 1:
            cell = '"' + cell.replace('"', '""') + '"'
            if delimiter != "\t":  # padding outside the quotes too
                cell = draw(pad) + cell
        return cell

    lines = [delimiter.join(map(render, names))]
    for _ in range(draw(st.sampled_from([3, 1, 5, 0, 2]))):
        row = [draw(cells) for _ in names]
        if flawed:
            row = draw(st.sampled_from([row, row, row[:-1], row[:-2], row + ["1"]]))
            if row and draw(st.integers(0, 9)) == 0:
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from([TOO_LARGE,
                                                                                LARGE_ZERO]))
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
        lines.append(delimiter.join(map(render, row)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return names, newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


def _outcome(read, *args):
    try:
        return read(*args)
    except CorpusError as exc:
        return str(exc)


def _bits(samples):
    """(predictors, rating) pairs with every float as its hex form, so that -0.0 is not 0.0."""
    return [([(name, value.hex()) for name, value in predictors.items()], rating.hex())
            for predictors, rating in samples]


def _by_row(rated):
    """A (names, table) corpus as the oracle's (predictors, rating) pairs, one a row."""
    names, table = rated
    return [({name: value for name, value in zip(names, row) if name != "rating"},
             row[names.index("rating")]) for row in table.tolist()]


fit_corpora = corpora(["rating", "NA"], ["NM", "NAssoc", "MaxDIT", "NGen", "NC", "NDep", "x"])
validation_corpora = corpora(["known", "computed"], ["id", "diagram", "note"],
                             extra_cells=["d.cd"])


# Any warning, such as numpy's for a text with no rows, fails the test; but for
# one that Hypothesis's own report of a failure can set off (libcst's import).
@pytest.mark.filterwarnings("error", "default:mypy_extensions.TypedDict:DeprecationWarning")
@settings(max_examples=400, deadline=None)
@given(fit_corpora)
def test_fit_corpus_reader_matches_the_by_column_oracle(tmp_path_factory, corpus):
    _, text = corpus
    path = tmp_path_factory.mktemp("fit") / "fit.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(load_rating_corpus, path)
    if not isinstance(got, str):
        got = _bits(_by_row(got))
    want = _outcome(rating_corpus_by_column, path.read_text(encoding="utf-8"), str(path))
    if isinstance(want, list):
        want = _bits(want)
    assert got == want  # floats compared bit for bit


@settings(max_examples=400, deadline=None)
@given(validation_corpora)
def test_validation_reader_matches_the_by_column_oracle(corpus):
    _, text = corpus
    # Whether the reader may take the cells as they are: see _read_rows.
    plain = text.isascii() and not re.search('[" \t\x0b\x0c\x1c-\x1f]', text)
    event("plain corpus" if plain else "corpus with padding, a quote or non-ASCII text")
    got = _outcome(parse_validation_rows, text, "v.csv")
    want = _outcome(validation_rows_by_column, text, "v.csv")
    if isinstance(got, list) and isinstance(want, list):
        got, want = [list(r.items()) for r in got], [list(r.items()) for r in want]
    assert got == want


@settings(max_examples=400, deadline=None)
@given(validation_corpora)
def test_validation_pairs_match_the_by_column_oracle(corpus):
    _, text = corpus

    def estimate(name):  # one that never fails, so that only corpus faults are compared
        return float(len(name))

    got = _outcome(validation_pairs, text, "v.csv", estimate)
    want = _outcome(validation_pairs_by_column, text, "v.csv", estimate)
    if isinstance(got, list):  # plain tuples, floats compared bit for bit
        assert all(type(pair) is tuple for pair in got)
        got = [(known.hex(), computed.hex()) for known, computed in got]
    if isinstance(want, list):
        want = [(known.hex(), computed.hex()) for known, computed in want]
    assert got == want


@settings(max_examples=1000, deadline=None)
@given(fit_corpora | validation_corpora)
def test_the_header_read_back_is_the_one_written(corpus):
    names, text = corpus
    try:
        got, _, _ = _read_rows(text, "c.csv")
    except CorpusError as exc:  # a flawed record, at a line past the header's
        line = re.match(r"c\.csv:(\d+): ", str(exc))
        assert line and int(line[1]) > 1, str(exc)
    else:
        assert got == names


# Tab-aligned columns split on the header line's delimiter, not on the tabs.
@pytest.mark.parametrize("text, want", [
    ("NA\t;\trating\n1\t;\t2\n2\t;\t3\n3\t;\t5\n", [({"NA": 1.0}, 2.0), ({"NA": 2.0}, 3.0),
                                                      ({"NA": 3.0}, 5.0)]),
    ("NA\t;rating\n1\t;2\n2\t;3\n", [({"NA": 1.0}, 2.0), ({"NA": 2.0}, 3.0)]),
])
def test_tab_aligned_fit_corpus_is_read(tmp_path, text, want):
    path = tmp_path / "fit.csv"
    path.write_text(text, encoding="utf-8")
    assert _by_row(load_rating_corpus(path)) == want


# Tab padding before a field is skipped as space padding is, so a quote after
# it opens a quoted cell; a tab inside the quotes is kept.
@pytest.mark.parametrize("text, want", [
    ('id,\tknown,\tcomputed\na,\t"1",\t2\n', {"id": "a", "known": "1", "computed": "2"}),
    ('known,\tid,\tcomputed\n1,\t"b,c",\t2\n', {"known": "1", "id": "b,c", "computed": "2"}),
    ('id;\tknown;\tcomputed\n\t"a;\t""b""";\t1;\t2\n',
     {"id": 'a;\t"b"', "known": "1", "computed": "2"}),
])
def test_tab_padding_before_a_quoted_cell_is_skipped(text, want):
    assert parse_validation_rows(text, "v.csv") == [want]
    assert validation_rows_by_column(text, "v.csv") == [want]


def test_tab_aligned_validation_corpus_is_read():
    text = "id\t;\tknown\t;\tcomputed\na\t;\t1\t;\t1.2\nb\t;\t2\t;\t1.9\n"
    assert parse_validation_rows(text, "v.csv") == [
        {"id": "a", "known": "1", "computed": "1.2"}, {"id": "b", "known": "2", "computed": "1.9"}]


# Quoting is Excel's wherever the record is: past the first 4 KB too.
@pytest.mark.parametrize("rows_before", [0, 1000])
def test_a_doubled_quote_reads_as_one(rows_before):
    text = "id,known,computed\n" + "x,1,2\n" * rows_before + '"say ""hi""",3,4\n'
    assert parse_validation_rows(text, "v.csv")[-1] == {"id": 'say "hi"', "known": "3",
                                                        "computed": "4"}


# The exact reader converts the table in one numpy call, which must read each
# cell as float() does: a finite cell as the same float, any other (or a short
# row's missing cell) as bad, named as the by-row reader names it.  The plain
# header may take numpy's text reader; the quoted one always takes the exact reader.
@pytest.mark.parametrize("cell", ["1_0", " 1 ", "+.5", "\u0661", "1e400", "nan", "-inf", "", None,
                                  "1#2"])
def test_bulk_conversion_reads_cells_as_float_does(tmp_path, cell):
    def finite_or_bad(convert):
        try:
            value = float(convert(cell))
        except (TypeError, ValueError):
            return "bad"
        return value if math.isfinite(value) else "bad"

    want = finite_or_bad(float)
    assert finite_or_bad(lambda c: np.fromiter(iter(["2", c]), dtype=float, count=2)[1]) == want
    for header in ("rating,NA", '"rating",NA'):
        text = f"{header}\n2\n" if cell is None else f"{header}\n2,{cell}\n"
        path = tmp_path / "fit.csv"
        path.write_text(text, encoding="utf-8")
        got = _outcome(load_rating_corpus, path)
        oracle = _outcome(rating_corpus_by_column, text, str(path))
        if want == "bad":
            assert got == oracle and f"{path}: bad numeric value for column 'NA': " in got
        else:
            assert _by_row(got) == oracle == [({"NA": want}, 2.0)]
    assert corpus_module._plain_table(text, "fit.csv") is None


@pytest.mark.parametrize("text,message", [
    # A csv.Error names the line csv.reader stopped on: the failing record's,
    # after any blank lines before it.
    ("NA,rating\n1,2\n<big>,3\n", "fit.csv:3: field larger"),
    ("NA,rating\n1,2\n\n\n<big>,3\n", "fit.csv:5: field larger"),
    ("NA,rating\n<big>,3\n", "fit.csv:2: field larger"),
    ("NA,rating\n1,2\n<zero>,3\n", "fit.csv:3: field larger"),
    ("NA,rating\n1,2\n3,4,5\n", "fit.csv:3: more fields than the header"),
    ("NA,rating\n1,2\n\n3,4,5\n", "fit.csv:4: more fields than the header"),
    ("NA,rating\n1,2\n\n3,4,5\n1,2\n<big>,3\n", "fit.csv:4: more fields than the header"),
    # The first bad cell in header order, then rating; a short row's missing cells are None.
    ("rating,NM,NA\nnan,x,inf\n", "bad numeric value for column 'NM': 'x'"),
    ("NM,NA,rating\n1, inf ,x\n", "bad numeric value for column 'NA': 'inf'"),
    ("NM,NA,rating\n1,2\n", "bad numeric value for column 'rating': None"),
    ("NM,rating,NA\n\n", None),  # no rows
    # Every column but rating must name a metric, checked at the header:
    # before any cell, and also when no record follows.
    ("x,rating\n", "fit.csv: unknown metric name(s): ['x']"),
    ("x,rating\n1,nan\n", "fit.csv: unknown metric name(s): ['x']"),
    # Blank lines before the header are skipped, and lines are counted from the file's first.
    ("\nNA,rating\n1,2\n3,4,5\n", "fit.csv:4: more fields than the header"),
])
def test_fit_corpus_errors_and_lines(tmp_path, text, message):
    text = text.replace("<big>", TOO_LARGE).replace("<zero>", LARGE_ZERO)
    path = tmp_path / "fit.csv"
    path.write_text(text, encoding="utf-8")
    if message is None:
        rated = load_rating_corpus(path)
        assert rated[0] == ["NM", "rating", "NA"] and rated[1].shape == (0, 3)
        with fails(ModelError, 4, "need at least 2 samples, got 0"):
            fit(rated, ["NA"])
        return
    with pytest.raises(CorpusError) as exc:
        load_rating_corpus(path)
    assert message in str(exc.value)
    with pytest.raises(CorpusError) as oracle:
        rating_corpus_by_column(text, str(path))
    assert str(exc.value) == str(oracle.value)


# A record's line is found again only when an error needs it; it must be the
# line csv.reader had reached when it gave that record.
@pytest.mark.parametrize("text, message", [
    # A long record is named before a field too large that follows it.
    ("id,known,computed\na,1,2\n\nb,2,3,4\nc,3,3\n<big>,4,4\n",
     "v.csv:4: more fields than the header"),
    # Blank lines and CRLF before a row with neither value: that row's own line.
    ("id,known,computed\r\na,1,2\r\n\r\n\r\nb,2,\r\nc,3,3\r\n",
     "v.csv:5: need a 'computed' or 'diagram' value"),
    ("id,known,diagram,computed\n\na,1,d.cd,\n\n\n b , 2 , , \n",
     "v.csv:6: need a 'computed' or 'diagram' value"),
    # A quoted cell over two lines: the line its record ends on, and the lines after it.
    ('id,known,computed\n"x\ny",1,\nb,2,2\n', "v.csv:3: need a 'computed' or 'diagram' value"),
    ('id,known,computed\n"x\ny",1,2\nb,2,\n', "v.csv:4: need a 'computed' or 'diagram' value"),
    ('id,known,computed\na,1,2\n"x\r\n\r\ny",1,2,3\n', "v.csv:5: more fields than the header"),
    ('id,known,computed\n"x\ny",1,2\n<big>,1,2\n', "v.csv:4: field larger"),
    # Blank lines before the header count as lines.
    ("\n\nid,known,computed\na,1,\n", "v.csv:4: need a 'computed' or 'diagram' value"),
    ("\r\nid,known,computed\r\na,1,2\r\nb,2,3,4\r\n", "v.csv:4: more fields than the header"),
    # A plain corpus, whose cells are taken as they are, with a short row.
    ("id,known,computed\na,1,2\nb,3\n", "v.csv:3: need a 'computed' or 'diagram' value"),
])
def test_validation_lines_found_on_failure(text, message):
    text = text.replace("<big>", TOO_LARGE)
    got = _outcome(parse_validation_rows, text, "v.csv")
    assert got.startswith(message)
    assert got == _outcome(validation_rows_by_column, text, "v.csv")


# Blank lines before the header are skipped, as blank lines between records
# are: in LF and CRLF text and after a byte-order mark, by both readers.  Before
# the header, a line of only spaces and tabs is blank too.
@pytest.mark.parametrize("before", ["\n", "\r\n\r\n", "\ufeff\n", "  \n", "\t \r\n \n"])
@pytest.mark.parametrize("text", ["NA;NM;rating\n1;2;3.1\n2;1;3.9\n3;5;5.2\n",
                                  "id,known,computed\na,1,1.2\nb,2,1.9\nc,3,3.4\n"])
def test_blank_lines_before_the_header_are_skipped(tmp_path, before, text):
    path = tmp_path / "c.csv"
    path.write_text(before + text, encoding="utf-8", newline="")
    read = read_file(path, CorpusError)
    if text.startswith("NA"):
        want = [({"NA": 1.0, "NM": 2.0}, 3.1), ({"NA": 2.0, "NM": 1.0}, 3.9),
                ({"NA": 3.0, "NM": 5.0}, 5.2)]
        assert _by_row(load_rating_corpus(path)) == rating_corpus_by_column(read, "c.csv") == want
    else:
        want = parse_validation_rows(text, "v.csv")
        assert parse_validation_rows(read, "v.csv") == want
        assert validation_rows_by_column(read, "v.csv") == want


# A short row's missing cells are None, every row's columns in header order.
def test_short_validation_row_is_padded_in_header_order():
    rows = parse_validation_rows("computed,id,known,note\n1.5,a\n2, b ,3,x\n", "v.csv")
    assert [list(row.items()) for row in rows] == [
        [("computed", "1.5"), ("id", "a"), ("known", None), ("note", None)],
        [("computed", "2"), ("id", "b"), ("known", "3"), ("note", "x")],
    ]
    assert rows == validation_rows_by_column("computed,id,known,note\n1.5,a\n2, b ,3,x\n", "v.csv")


# Cells are taken as csv gives them only where the text leaves none to strip.
# A quoted id that ends in a line break, cells that end in each ASCII character
# str.strip takes or in non-ASCII padding, a plain corpus with CRLF line ends
# (csv ends an unquoted cell at the \r) and a plain corpus with a short row are
# read as before, and as the by-column reader reads them.
ROW = [("id", "a"), ("known", "1"), ("computed", "2")]


@pytest.mark.parametrize("text, want", [
    ('id,known,computed\n"x\n",1,2\n', [[("id", "x"), ("known", "1"), ("computed", "2")]]),
    ('id,known,computed\n"a\r",1,2\n', [ROW]),
    ("id,known,computed\r\na,1,2\r\n", [ROW]),
    *[(f"id,known,computed\na{pad},1{pad},2{pad}\n", [ROW])
      for pad in " \t\x0b\x0c\x1c\x1d\x1e\x1f\xa0\u2003"],
    ("id,known,diagram,computed\na,1,d.cd,2\nb,3,e.cd\n", [
        [("id", "a"), ("known", "1"), ("diagram", "d.cd"), ("computed", "2")],
        [("id", "b"), ("known", "3"), ("diagram", "e.cd"), ("computed", None)]]),
])
def test_cells_are_stripped_wherever_a_cell_could_need_it(text, want):
    got = [list(row.items()) for row in parse_validation_rows(text, "v.csv")]
    assert got == [list(row.items()) for row in validation_rows_by_column(text, "v.csv")]
    assert got == want


# A corpus that is plain but for a late cell numpy's reader refuses is declined
# before that reader parses it, and read by the exact reader.
@pytest.mark.parametrize("cell", ["1_0", "\u0661", "1#2", "\x00"])
def test_a_late_cell_numpy_refuses_is_declined_before_parsing(tmp_path, monkeypatch, cell):
    lines = ["NA,rating", *(f"{i % 7},{i % 5 + 0.5}" for i in range(10_000))]
    lines[-1] = f"{cell},3"
    text = "\n".join(lines) + "\n"
    path = tmp_path / "fit.csv"
    path.write_text(text, encoding="utf-8")
    want = _outcome(rating_corpus_by_column, text, str(path))

    def loadtxt(*args, **kwargs):
        raise AssertionError("parsed by np.loadtxt")

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    assert corpus_module._plain_table(text, str(path)) is None
    got = _outcome(load_rating_corpus, path)
    if isinstance(want, list):
        got, want = _bits(_by_row(got)), _bits(want)
    assert got == want


# strip() takes the information separators \x1c-\x1f that float() does not skip:
# such a cell is read as its stripped number, as the by-column reader reads it.
@pytest.mark.parametrize("cell", ["1\x1f", "\x1c 2", "3\x1e\t", "4 \x1d"])
def test_separator_padding_is_stripped_before_conversion(tmp_path, cell):
    text = f"NA,rating\n{cell},2\n5,{cell}\n"
    path = tmp_path / "fit.csv"
    path.write_text(text, encoding="utf-8")
    want = float(cell.strip())
    assert _by_row(load_rating_corpus(path)) == [({"NA": want}, 2.0), ({"NA": 5.0}, want)]
    assert _by_row(load_rating_corpus(path)) == rating_corpus_by_column(text, str(path))


# The paper's workflow: `metrics --format csv` over rated diagrams, its metric
# columns plus a `rating` column, saved with CRLF line ends as a spreadsheet
# saves it.  Such a corpus is read by numpy's text reader alone; a quoted header
# name sends its twin to the exact reader, with the same values.
@pytest.mark.filterwarnings("error", "default:mypy_extensions.TypedDict:DeprecationWarning")
def test_a_corpus_of_metrics_output_is_read_without_the_row_walk(tmp_path, capsys, monkeypatch):
    paths = []
    for i in range(6):
        source = "".join(f"class C{j} {{\n  attr a\n}}\n" for j in range(i + 1))
        source += "".join(f"gen C{j} => C{j - 1}\n" for j in range(1, i + 1))
        paths.append(tmp_path / f"d{i}.cd")
        paths[-1].write_text(source, encoding="utf-8")
    assert main(["--format", "csv", "metrics", *map(str, paths)]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header[:2] == ["file", "id"]
    lines = [",".join([*header[2:], "rating"])]
    lines += [",".join([*row[2:], f"{2 + 0.5 * i}"]) for i, row in enumerate(rows)]
    text = "\r\n".join(lines) + "\r\n"
    plain, quoted = tmp_path / "fit.csv", tmp_path / "quoted.csv"
    plain.write_text(text, encoding="utf-8", newline="")
    quoted.write_text('"' + text.replace(",", '",', 1), encoding="utf-8", newline="")
    want = _bits(rating_corpus_by_column(text, str(plain)))
    assert want[1] == (want[1][0], (2.5).hex()) and len(want) == 6

    def row_walk(*args):
        raise AssertionError("read by the exact reader")

    with monkeypatch.context() as patched:
        patched.setattr(corpus_module, "_exact_table", row_walk)
        assert _bits(_by_row(load_rating_corpus(plain))) == want
        with pytest.raises(AssertionError, match="exact reader"):
            load_rating_corpus(quoted)
    assert _bits(_by_row(load_rating_corpus(quoted))) == want


# A body with no rows is left to the exact reader, so numpy's "input contained
# no data" warning never shows: header only, blank lines, and whitespace lines.
@pytest.mark.filterwarnings("error", "default:mypy_extensions.TypedDict:DeprecationWarning")
@pytest.mark.parametrize("text, message", [
    ("NA,rating", None),
    ("NA,rating\n", None),
    ("NA,rating\r\n\r\n\n\r\n", None),
    ("NA,rating\n \n", "fit.csv: bad numeric value for column 'NA': ''"),
    ("NA;rating\n\t\x0c\n", "fit.csv: bad numeric value for column 'NA': ''"),
    ("rating\n\x1c\n\n", "fit.csv: bad numeric value for column 'rating': ''"),
])
def test_a_body_without_rows_is_read_as_before(tmp_path, text, message):
    path = tmp_path / "fit.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert corpus_module._plain_table(text, str(path)) is None
    got = _outcome(load_rating_corpus, path)
    if message is None:
        assert got[1].shape == (0, 2)
        got = _by_row(got)
    else:
        assert got == f"{path.parent}/{message}"
    assert got == _outcome(rating_corpus_by_column, text, str(path))
