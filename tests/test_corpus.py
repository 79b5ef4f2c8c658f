"""The corpus readers against a reader that builds one dict per row and reads
each cell back by column name (tests/oracles.py): the same samples or rows
on a valid corpus, the same CorpusError message, line included, on a bad one.
The header the readers split is checked against the names the corpus was
written with, and the delimiter and quoting rules against fixed corpora.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmetrics.corpus import CorpusError, _read_rows, load_rating_corpus, parse_validation_rows
from cdmetrics.errors import InsufficientSamples
from cdmetrics.regression import fit

from .oracles import rating_corpus_by_column, validation_rows_by_column

NUMBERS = ["0", "1", "-2", "3.5", "1e3", "7", "0.25"]
BAD_CELLS = ["nan", "inf", "-inf", "x", "", "1e400", "1,5", "1\n2", '"']
TOO_LARGE = "1" * 140_000  # past csv's default field size limit of 131 072


@st.composite
def corpora(draw, required, optional, extra_cells=()):
    """(column names, delimited text) with the required columns in any order,
    and any of: padded, quoted or non-numeric cells, short and long rows,
    blank lines, CRLF and a field too large to read."""
    names = required + draw(st.lists(st.sampled_from(optional), unique=True))
    names = draw(st.permutations(names))
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    flawed = draw(st.booleans())
    good = NUMBERS + list(extra_cells)
    cells = st.sampled_from(good * 4 + BAD_CELLS if flawed else good)

    pad = st.sampled_from(["", "", " ", "  ", "\t"])

    def render(cell):
        cell = draw(pad) + cell + draw(pad)
        if any(c in cell for c in f"{delimiter}\n\"") or draw(st.integers(0, 5)) == 0:
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
                row[draw(st.integers(0, len(row) - 1))] = TOO_LARGE
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
        lines.append(delimiter.join(map(render, row)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return names, newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


def _outcome(read, *args):
    try:
        return read(*args)
    except CorpusError as exc:
        return str(exc)


def _by_row(rated):
    """A RatingCorpus as the oracle's (predictors, rating) pairs, one a row."""
    return [(dict(zip(rated.predictors, row)), rating)
            for row, rating in zip(rated.values.tolist(), rated.ratings.tolist())]


fit_corpora = corpora(["rating", "NA"], ["NM", "NAssoc", "MaxDIT", "NGen", "NC", "NDep", "x"])
validation_corpora = corpora(["known", "computed"], ["id", "diagram", "note"],
                             extra_cells=["d.cd"])


@settings(max_examples=400, deadline=None)
@given(fit_corpora)
def test_fit_corpus_reader_matches_the_by_column_oracle(tmp_path_factory, corpus):
    _, text = corpus
    path = tmp_path_factory.mktemp("fit") / "fit.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(load_rating_corpus, path)
    if not isinstance(got, str):
        got = [(list(predictors.items()), rating) for predictors, rating in _by_row(got)]
    want = _outcome(rating_corpus_by_column, path.read_text(encoding="utf-8"), str(path))
    if isinstance(want, list):
        want = [(list(predictors.items()), rating) for predictors, rating in want]
    assert got == want  # floats compared exactly


@settings(max_examples=400, deadline=None)
@given(validation_corpora)
def test_validation_reader_matches_the_by_column_oracle(corpus):
    _, text = corpus
    got = _outcome(parse_validation_rows, text, "v.csv")
    want = _outcome(validation_rows_by_column, text, "v.csv")
    if isinstance(got, list) and isinstance(want, list):
        got, want = [list(r.items()) for r in got], [list(r.items()) for r in want]
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


# The table is converted in one numpy call, which must read each cell as float()
# does: a finite cell as the same float, any other (or a short row's missing
# cell) as bad, named as the by-row reader names it.
@pytest.mark.parametrize("cell", ["1_0", " 1 ", "+.5", "\u0661", "1e400", "nan", "-inf", "", None])
def test_bulk_conversion_reads_cells_as_float_does(tmp_path, cell):
    def finite_or_bad(convert):
        try:
            value = float(convert(cell))
        except (TypeError, ValueError):
            return "bad"
        return value if math.isfinite(value) else "bad"

    want = finite_or_bad(float)
    assert finite_or_bad(lambda c: np.array([["2", c]], dtype=float)[0, 1]) == want
    text = "rating,NA\n2\n" if cell is None else f"rating,NA\n2,{cell}\n"
    path = tmp_path / "fit.csv"
    path.write_text(text, encoding="utf-8")
    got = _outcome(load_rating_corpus, path)
    oracle = _outcome(rating_corpus_by_column, text, str(path))
    if want == "bad":
        assert got == oracle and f"{path}: bad numeric value for column 'NA': " in got
    else:
        assert _by_row(got) == oracle == [({"NA": want}, 2.0)]


@pytest.mark.parametrize("text,message", [
    # A csv.Error names the line csv.reader stopped on: the failing record's,
    # after any blank lines before it.
    ("NA,rating\n1,2\n<big>,3\n", "fit.csv:3: field larger"),
    ("NA,rating\n1,2\n\n\n<big>,3\n", "fit.csv:5: field larger"),
    ("NA,rating\n<big>,3\n", "fit.csv:2: field larger"),
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
    ("\nNA,rating\n1,2\n", "fit.csv: empty corpus"),
])
def test_fit_corpus_errors_and_lines(tmp_path, text, message):
    text = text.replace("<big>", TOO_LARGE)
    path = tmp_path / "fit.csv"
    path.write_text(text, encoding="utf-8")
    if message is None:
        rated = load_rating_corpus(path)
        assert rated.predictors == ("NM", "NA")
        assert rated.values.shape == (0, 2) and rated.ratings.shape == (0,)
        with pytest.raises(InsufficientSamples, match="need at least 2 samples, got 0"):
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
])
def test_validation_lines_found_on_failure(text, message):
    text = text.replace("<big>", TOO_LARGE)
    got = _outcome(parse_validation_rows, text, "v.csv")
    assert got.startswith(message)
    assert got == _outcome(validation_rows_by_column, text, "v.csv")


# A short row's missing cells are None, every row's columns in header order.
def test_short_validation_row_is_padded_in_header_order():
    rows = parse_validation_rows("computed,id,known,note\n1.5,a\n2, b ,3,x\n", "v.csv")
    assert [list(row.items()) for row in rows] == [
        [("computed", "1.5"), ("id", "a"), ("known", None), ("note", None)],
        [("computed", "2"), ("id", "b"), ("known", "3"), ("note", "x")],
    ]
    assert rows == validation_rows_by_column("computed,id,known,note\n1.5,a\n2, b ,3,x\n", "v.csv")


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
