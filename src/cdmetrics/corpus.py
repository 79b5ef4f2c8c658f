"""Delimiter-separated corpus files for fitting and validation."""

from __future__ import annotations

import csv
import io
import math
import os
import re
from collections.abc import Callable  # already loaded at start-up; for the annotation

from .errors import CorpusError, read_file
from .metrics import METRIC_NAMES
from .regression import RatingCorpus
from .spearman import RatedPair

REFERENCE_RATINGS = os.path.join(os.path.dirname(__file__), "data", "table2.csv")
# r_s the original study reports for the reference ratings, for comparison.
REPORTED_RANK_CORRELATION = 0.9482


def _read_rows(text: str, where: str) -> tuple[list[str], list[list[str]], Callable[[int], int]]:
    """Header names, the records as csv gives them, and line_of(i), the line record i ends on.

    The delimiter is `,` if the header line has one, else `;` if it has one,
    else a tab; quoting is Excel's.  Spaces and tabs after a delimiter and blank
    lines are skipped and names stripped.  Records come back raw, neither stripped
    nor padded, and none longer than the header; a line is found only on failure.
    """
    header_line = text.partition("\n")[0]
    delimiter = next((d for d in ",;" if d in header_line), "\t")
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
        header = next(reader, None)
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
    return names, records, line_of


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
    header order, then rating."""
    where = str(path)
    names, records, _ = _read_rows(read_file(path, CorpusError), where)
    if "rating" not in names:
        raise CorpusError(f"{where}: missing 'rating' column")
    at = names.index("rating")
    predictors = names[:at] + names[at + 1:]
    unknown = set(predictors).difference(METRIC_NAMES)
    if unknown:
        raise CorpusError(f"{where}: unknown metric name(s): {sorted(unknown)}")
    import numpy as np  # here, as in regression.fit, so that `validate` does not load it
    try:  # float()'s reading of every raw cell at once; float() skips padding spaces itself
        table = np.array(records, dtype=float).reshape(len(records), len(names))
    except ValueError:  # an empty or non-numeric cell, or a short row
        table = None
    if table is None or not np.isfinite(table).all():
        stripped = [list(map(str.strip, fields)) for fields in records]
        for fields in stripped:  # by row; a short row's dict lacks its missing cells
            row = dict(zip(names, fields))
            for column in (*predictors, "rating"):
                _number(row, column, where)
        table = np.array(stripped, dtype=float)  # strip() takes \x1c-\x1f, float() does not
    return RatingCorpus(tuple(predictors), np.delete(table, at, axis=1), table[:, at])


def parse_validation_rows(text: str, where: str) -> list[dict[str, str]]:
    """Validation corpus rows: id plus known, and a computed or a diagram value."""
    names, records, line_of = _read_rows(text, where)
    if "known" not in names:
        raise CorpusError(f"{where}: missing 'known' column")
    if "computed" not in names and "diagram" not in names:
        raise CorpusError(f"{where}: need a 'computed' or 'diagram' column")
    rows = [dict(zip(names, map(str.strip, fields))) for fields in records]
    if records and min(map(len, records)) < len(names):  # a short row's missing cells are None
        rows = [dict.fromkeys(names) | row for row in rows]
    for i, row in enumerate(rows):
        if not (row.get("computed") or row.get("diagram")):
            raise CorpusError(f"{where}:{line_of(i)}: need a 'computed' or 'diagram' value")
    return rows


def pair_from_row(row: dict[str, str], computed: float, where: str) -> RatedPair:
    return tuple.__new__(RatedPair, (_number(row, "known", where), computed))


def validation_pairs(text: str, where: str, estimate_diagram=None) -> list[RatedPair]:
    """Known/computed pairs of a validation corpus; a row without a computed
    value gets estimate_diagram(its diagram cell)."""
    return [
        pair_from_row(row, _number(row, "computed", where) if row.get("computed")
                      else estimate_diagram(row["diagram"]), where)
        for row in parse_validation_rows(text, where)
    ]


def load_reference_ratings() -> list[RatedPair]:
    """The bundled 28-diagram known/computed rating pairs."""
    return validation_pairs(read_file(REFERENCE_RATINGS, CorpusError), "table2.csv")
