"""Delimiter-separated corpus files for fitting and validation."""

from __future__ import annotations

import csv
import io
import math
import os

from .errors import CdmetricsError, read_file
from .metrics import METRIC_NAMES
from .regression import RatedSample
from .spearman import RatedPair

REFERENCE_RATINGS = os.path.join(os.path.dirname(__file__), "data", "table2.csv")
# r_s the original study reports for the reference ratings, for comparison.
REPORTED_RANK_CORRELATION = 0.9482


class CorpusError(CdmetricsError):
    """Malformed corpus file."""


def _read_rows(text: str, where: str) -> tuple[list[str], list[list[str | None]], list[int]]:
    """Header names, the records, and the line each record ends on.

    The delimiter is `,` if the header line has one, else `;` if it has one,
    else a tab; quoting is Excel's.  Spaces after a delimiter and blank lines
    are skipped, names and fields stripped, and a short record padded with None.
    """
    header_line = text.partition("\n")[0]
    delimiter = next((d for d in ",;" if d in header_line), "\t")
    reader = csv.reader(io.StringIO(text), delimiter=delimiter, skipinitialspace=True)
    records, lines = [], []
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
        for fields in reader:
            if not fields:
                continue
            if len(fields) > width:
                raise CorpusError(f"{where}:{reader.line_num}: more fields than the header")
            fields = list(map(str.strip, fields))
            if len(fields) < width:
                fields += [None] * (width - len(fields))
            records.append(fields)
            lines.append(reader.line_num)
    except csv.Error as exc:  # name the line the reader stopped on
        raise CorpusError(f"{where}:{reader.line_num}: {exc}") from None
    return names, records, lines


def _number(row: dict, column: str, where: str) -> float:
    try:
        value = float(row[column])
    except (KeyError, TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise CorpusError(f"{where}: bad numeric value for column {column!r}: {row.get(column)!r}")
    return value


def load_rating_corpus(path: str) -> list[RatedSample]:
    """Fit corpus: predictor columns plus a `rating` column, in any order.

    Every other column must name a metric, checked once at the header.
    """
    where = str(path)
    names, records, _ = _read_rows(read_file(path, CorpusError), where)
    if "rating" not in names:
        raise CorpusError(f"{where}: missing 'rating' column")
    at = names.index("rating")
    predictors = names[:at] + names[at + 1:]
    unknown = set(predictors).difference(METRIC_NAMES)
    if unknown:
        raise CorpusError(f"{where}: unknown metric name(s): {sorted(unknown)}")
    samples = []
    for fields in records:
        try:
            values = list(map(float, fields))
        except (TypeError, ValueError):  # a missing, empty or non-numeric cell
            values = [math.nan]
        if not all(map(math.isfinite, values)):
            # Name the first bad cell: predictors in header order, then rating.
            row = dict(zip(names, fields))
            for column in (*predictors, "rating"):
                _number(row, column, where)
        rating = values.pop(at)
        samples.append(RatedSample(dict(zip(predictors, values)), rating))
    return samples


def parse_validation_rows(text: str, where: str) -> list[dict[str, str]]:
    """Validation corpus rows: id plus known, and a computed or a diagram value."""
    names, records, lines = _read_rows(text, where)
    if "known" not in names:
        raise CorpusError(f"{where}: missing 'known' column")
    if "computed" not in names and "diagram" not in names:
        raise CorpusError(f"{where}: need a 'computed' or 'diagram' column")
    rows = []
    for fields, line in zip(records, lines):
        row = dict(zip(names, fields))
        if not (row.get("computed") or row.get("diagram")):
            raise CorpusError(f"{where}:{line}: need a 'computed' or 'diagram' value")
        rows.append(row)
    return rows


def pair_from_row(row: dict[str, str], computed: float, where: str) -> RatedPair:
    return RatedPair(known=_number(row, "known", where), computed=computed)


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
