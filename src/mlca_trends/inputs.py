"""Reading input files: the path check, the UTF-8 decode, the parse and the
header check of every CSV and JSON input. A malformed file raises the caller's
stage error naming the file; the cell parsers raise ValueError. The one CSV
writer and cell formatter live here too, so tables round-trip through one
module."""

from __future__ import annotations

import csv
import datetime as dt
import json
from pathlib import Path


def _existing(path, error, what) -> Path:
    path = Path(path)
    if not path.is_file():
        raise error(f"{what} not found: {path}")
    return path


def read_json(path, error, what) -> dict:
    """The JSON object held by a UTF-8 file."""
    path = _existing(path, error, what)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
        raise error(f"{what} {path} is not readable UTF-8 JSON: {exc}") from None
    if not isinstance(data, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return data


def read_csv(path, error, what, columns=None):
    """(header, rows) of a UTF-8 CSV file; rows streams (line number, row)
    pairs, a row mapping each header name to its cell ("" when the row is
    short). With `columns`, the header must hold exactly those names."""
    rows = _csv_rows(_existing(path, error, what), error, what, columns)
    return next(rows), rows


def _csv_rows(path: Path, error, what, columns):
    """Yields the header, then the rows; the file closes with the generator."""
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle, restval="")
            header = reader.fieldnames or []
            if columns is not None and set(header) != set(columns):
                raise error(f"unknown {what} schema in {path}: missing columns "
                            f"{sorted(set(columns) - set(header))}, unexpected columns "
                            f"{sorted(set(header) - set(columns))}")
            yield header
            for row in reader:
                yield reader.line_num, row
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: bad UTF-8
        raise error(f"{what} {path} is not readable UTF-8 CSV: {exc}") from None


def parse_number(value, column: str, required: bool = False) -> float | None:
    """A number from a CSV cell or a JSON value. A blank cell or a JSON null
    reads as None, or is an error where the column requires a value. A JSON
    boolean is an error, though float(True) is 1.0."""
    if isinstance(value, str):
        value = value.strip() or None
    if value is None:
        if required:
            raise ValueError(f"column {column!r}: a value is required")
        return None
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"column {column!r}: cannot parse number from {value!r}")


def parse_count(value, column: str, required: bool = False) -> int | None:
    """A whole count through parse_number; 8.5, nan and inf are errors."""
    number = parse_number(value, column, required)
    if number is None:
        return None
    if not number.is_integer():
        raise ValueError(f"{column} must be a whole count, got {number}")
    return int(number)


def parse_date(cell: str, column: str) -> dt.date:
    """An ISO date (YYYY-MM-DD) from a CSV cell."""
    cell = cell.strip()
    try:
        return dt.date.fromisoformat(cell)
    except ValueError:
        raise ValueError(f"column {column!r}: cannot parse ISO date from {cell!r}") from None


def format_cell(value) -> str:
    """A CSV cell: blank for None, 12 significant digits for a float, an ISO
    date for a date, str() for anything else. Exact str and float cells take
    the fast path; float subclasses such as numpy.float64 format alike."""
    kind = type(value)
    if kind is str:
        return value
    if kind is float:
        return f"{value:.12g}"
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, dt.date):
        return value.isoformat()
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a UTF-8 CSV table: the header, then each row through format_cell."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(map(format_cell, row) for row in rows)
