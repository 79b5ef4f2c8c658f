"""Delimiter-separated corpus files for fitting and validation."""

from __future__ import annotations

import csv
import io
import math
from importlib import resources
from pathlib import Path

from .errors import CdmetricsError, ModelError, read_file
from .regression import RatedSample
from .spearman import RatedPair

REFERENCE_RATINGS_RESOURCE = "table2.csv"
# r_s the original study reports for the reference ratings, for comparison.
REPORTED_RANK_CORRELATION = 0.9482


class CorpusError(CdmetricsError):
    """Malformed corpus file."""


def _read_rows(text: str, where: str) -> tuple[list[str], list[dict[str, str]], list[int]]:
    """Header names, the records, and the line each record ends on."""
    try:
        dialect = csv.Sniffer().sniff(text[:4096], delimiters=",;\t")
        delimiter = dialect.delimiter
    except csv.Error:  # a ragged row, say: split as the header line is split
        dialect = csv.excel
        delimiter = max(",;\t", key=text.partition("\n")[0].count)
    reader = csv.DictReader(io.StringIO(text), dialect=dialect, delimiter=delimiter)
    rows, lines = [], []
    try:
        if not reader.fieldnames:
            raise CorpusError(f"{where}: empty corpus")
        for row in reader:
            if None in row:
                raise CorpusError(f"{where}:{reader.line_num}: more fields than the header")
            rows.append({k.strip(): v.strip() if v else v for k, v in row.items()})
            lines.append(reader.line_num)
    except csv.Error as exc:  # line_num is still that of the last good record
        raise CorpusError(f"{where}:{reader.line_num + 1}: {exc}") from None
    return [name.strip() for name in reader.fieldnames], rows, lines


def _number(row: dict, column: str, where: str) -> float:
    try:
        value = float(row[column])
    except (KeyError, TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise CorpusError(f"{where}: bad numeric value for column {column!r}: {row.get(column)!r}")
    return value


def load_rating_corpus(path: str | Path) -> list[RatedSample]:
    """Fit corpus: predictor columns plus a final `rating` column."""
    where = str(path)
    fieldnames, rows, _ = _read_rows(read_file(path, CorpusError), where)
    if "rating" not in fieldnames:
        raise CorpusError(f"{where}: missing 'rating' column")
    predictors = [name for name in fieldnames if name != "rating"]
    samples = []
    try:
        for row in rows:
            samples.append(RatedSample(
                predictors={p: _number(row, p, where) for p in predictors},
                rating=_number(row, "rating", where),
            ))
    except ModelError as exc:  # a predictor column that names no metric
        raise CorpusError(f"{where}: {exc}") from None
    return samples


def parse_validation_rows(text: str, where: str) -> list[dict[str, str]]:
    """Validation corpus rows: id plus known, and a computed or a diagram value."""
    fieldnames, rows, lines = _read_rows(text, where)
    if "known" not in fieldnames:
        raise CorpusError(f"{where}: missing 'known' column")
    if "computed" not in fieldnames and "diagram" not in fieldnames:
        raise CorpusError(f"{where}: need a 'computed' or 'diagram' column")
    for row, line in zip(rows, lines):
        if not (row.get("computed") or row.get("diagram")):
            raise CorpusError(f"{where}:{line}: need a 'computed' or 'diagram' value")
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
    text = (
        resources.files("cdmetrics") / "data" / REFERENCE_RATINGS_RESOURCE
    ).read_text(encoding="utf-8")
    return validation_pairs(text, REFERENCE_RATINGS_RESOURCE)
