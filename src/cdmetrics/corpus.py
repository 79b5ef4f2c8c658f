"""Delimiter-separated corpus files for fitting and validation."""

from __future__ import annotations

import csv
import io
import math
import os
import re
from collections.abc import Callable  # for the annotation
from itertools import chain
from operator import itemgetter

from .errors import CorpusError, read_file
from .metrics import METRIC_NAMES

REFERENCE_RATINGS = os.path.join(os.path.dirname(__file__), "data", "table2.csv")
# r_s the original study reports for the reference ratings, for comparison.
REPORTED_RANK_CORRELATION = 0.9482


def _delimiter(header_line: str) -> str:
    """A corpus's delimiter: `,` if its header line has one, else `;` if it has one, else a tab."""
    return next((d for d in ",;" if d in header_line), "\t")


def _read_rows(text: str, where: str) -> tuple[list[str], list[dict], Callable[[int], int]]:
    """Header names, the records as dicts by name, and line_of(i), the line record i ends on.

    The header is the first non-blank line, and the delimiter is its (_delimiter);
    quoting is Excel's.  Spaces and tabs after a delimiter and blank lines, before
    the header too, are skipped and names stripped.  A record longer than the
    header is an error; a short one's missing cells are None.
    Cells are stripped unless the text is ASCII and holds no `"` and no character
    str.strip takes but a line break, which csv ends an unquoted cell at.  A line
    is found only on failure.
    """
    delimiter = _delimiter(text.lstrip("\r\n").partition("\n")[0])
    if delimiter != "\t" and "\t" in text:  # skipinitialspace skips spaces, not tabs
        # Padding tabs become spaces; a match ends with its field, so tabs in quotes stay.
        field = rf'([ \t]*)((?:"(?:[^"]|"")*(?:"|\Z))?[^{delimiter}\r\n]*)'
        text = re.sub(field, lambda m: m[1].replace("\t", " ") + m[2], text)

    def line_of(index: int) -> int:  # by a second reader, as only an error needs it
        again = csv.reader(io.StringIO(text), delimiter=delimiter, skipinitialspace=True)
        list(zip(range(index + 2), filter(None, again)))  # the header, then records 0 to index
        return again.line_num

    reader = csv.reader(io.StringIO(text), delimiter=delimiter, skipinitialspace=True)
    records, failure = [], None
    try:
        header = next(filter(None, reader), None)
        if not header:
            raise CorpusError(f"{where}: empty corpus")
        names = [name.strip() for name in header]
        seen = set()
        for name in names:
            if name in seen:
                raise CorpusError(f"{where}: duplicate column {name!r}")
            seen.add(name)
        width = len(names)
        records.extend(filter(None, reader))  # keeps the records read before a csv.Error
    except csv.Error as exc:  # the line the reader stopped on
        failure = CorpusError(f"{where}:{reader.line_num}: {exc}")
    if records and max(map(len, records)) > width:  # width is set; named before a csv.Error
        index = next(i for i, fields in enumerate(records) if len(fields) > width)
        raise CorpusError(f"{where}:{line_of(index)}: more fields than the header")
    if failure:
        raise failure
    strip = not text.isascii() or any(c in text for c in '" \t\x0b\x0c\x1c\x1d\x1e\x1f')
    rows = [dict(zip(names, map(str.strip, fields) if strip else fields)) for fields in records]
    if records and min(map(len, records)) < width:
        rows = [dict.fromkeys(names) | row for row in rows]
    return names, rows, line_of


def _number(row: dict, column: str, where: str) -> float:
    try:
        value = float(row[column])
    except (KeyError, TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise CorpusError(f"{where}: bad numeric value for column {column!r}: {row.get(column)!r}")
    return value


def load_rating_corpus(path: str) -> RatingCorpus:
    """Fit corpus, by column: predictor columns plus a `rating` column, in any order.

    Every other column must name a metric, checked once at the header.  A cell
    that is not a finite number is named: the first by row, then predictors in
    header order, then rating.  A plain corpus is read by numpy's C text reader
    (_plain_table), any other by _read_rows and float(): the same values either way."""
    where = str(path)
    text = read_file(path, CorpusError)
    names, table = _plain_table(text, where) or _exact_table(text, where)
    at = names.index("rating")
    import numpy as np  # loaded already by either reader
    from .regression import RatingCorpus  # here, so that `reproduce` does not load regression
    return RatingCorpus(tuple(names[:at] + names[at + 1:]), np.delete(table, at, axis=1),
                        table[:, at])


def _plain_table(text: str, where: str):
    """(names, table) of a fit corpus with no quote, read by np.loadtxt, or None
    where that reader could part from _exact_table.

    loadtxt reads a cell as float() reads it stripped (CPython's correctly rounded
    PyOS_string_to_double after str.strip's whitespace), but refuses what float()
    forgives: `1_0`, non-ASCII digits, an empty cell.  Given no comment character,
    it refuses a `#` in a cell, and it refuses a line break inside a line.  So a
    table it reads whole, with the header's width and every value finite, is the
    one _exact_table gives.  For any other corpus this declines, never raising or
    warning, and _exact_table names the fault: at once, before any parsing, for a
    quote (a quoted name could span lines), non-ASCII text, `_`, `#` or NUL."""
    header_line, _, body = text.partition("\n")
    if not text.isascii() or any(c in text for c in '"_#\x00') or not body or body.isspace():
        return None  # loadtxt would refuse the text, or warn on a body of no rows
    try:
        names, _, _ = _read_rows(header_line, where)
    except CorpusError:
        return None
    lines = body.split("\n")
    # A line no longer than csv's field limit holds no field csv would refuse.
    if (set(names).difference(METRIC_NAMES) != {"rating"}
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    import numpy as np  # here, as in regression.fit, so that `validate` does not load it
    try:
        table = np.loadtxt(lines, delimiter=_delimiter(header_line), comments=None,
                           quotechar=None, dtype=float, ndmin=2)
    except ValueError:  # a cell it cannot read, or rows of unequal width
        return None
    if table.shape[1] != len(names) or not np.isfinite(table).all():
        return None
    return names, table


def _exact_table(text: str, where: str):
    """(names, table) of any fit corpus: _read_rows' cells, converted by numpy as
    float() reads them; the first fault raises a CorpusError that names it."""
    names, rows, _ = _read_rows(text, where)
    if "rating" not in names:
        raise CorpusError(f"{where}: missing 'rating' column")
    at = names.index("rating")
    predictors = names[:at] + names[at + 1:]
    unknown = set(predictors).difference(METRIC_NAMES)
    if unknown:
        raise CorpusError(f"{where}: unknown metric name(s): {sorted(unknown)}")
    import numpy as np  # here, as in regression.fit, so that `validate` does not load it
    try:  # float()'s reading of every cell at once; a None cell reads as NaN
        table = np.fromiter(chain.from_iterable(map(dict.values, rows)), dtype=float,
                            count=len(rows) * len(names))
    except ValueError:  # an empty or non-numeric cell
        table = None
    if table is None or not np.isfinite(table).all():
        for row in rows:  # the first fault by row, then predictors in header order, then rating
            for column in (*predictors, "rating"):
                _number(row, column, where)
    return names, table.reshape(len(rows), len(names))


def parse_validation_rows(text: str, where: str) -> list[dict[str, str]]:
    """Validation corpus rows, as _read_rows gives them: id plus known, and a
    computed or a diagram value."""
    names, rows, line_of = _read_rows(text, where)
    if "known" not in names:
        raise CorpusError(f"{where}: missing 'known' column")
    if "computed" not in names and "diagram" not in names:
        raise CorpusError(f"{where}: need a 'computed' or 'diagram' column")
    if "computed" not in names or not all(map(itemgetter("computed"), rows)):
        for i, row in enumerate(rows):  # the first row without a value names its line
            if not (row.get("computed") or row.get("diagram")):
                raise CorpusError(f"{where}:{line_of(i)}: need a 'computed' or 'diagram' value")
    return rows


def pair_from_row(row: dict[str, str], computed: float, where: str) -> tuple[float, float]:
    """A plain (known, computed) tuple, the row's `known` cell checked finite and `computed`
    not: for validation_pairs, and callers that convert `computed` themselves."""
    return _number(row, "known", where), computed


def validation_pairs(text: str, where: str, estimate_diagram=None) -> list[tuple[float, float]]:
    """Plain (known, computed) tuples of a validation corpus; a row without a
    computed value gets estimate_diagram(its diagram cell), read before its known."""
    return [
        pair_from_row(row, _number(row, "computed", where) if row.get("computed")
                      else estimate_diagram(row["diagram"]), where)
        for row in parse_validation_rows(text, where)
    ]


def load_reference_ratings() -> list[tuple[float, float]]:
    """The bundled 28-diagram rating pairs, as plain (known, computed) tuples."""
    return validation_pairs(read_file(REFERENCE_RATINGS, CorpusError), "table2.csv")
