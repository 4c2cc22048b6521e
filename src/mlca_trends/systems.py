"""Notable ML-systems table: ingestion, coverage statistics, eligibility.

The canonical CSV schema is SYSTEM_COLUMNS; exports from upstream databases
with drifting headers are adapted through a column-mapping config (JSON,
upstream column -> canonical field). Multi-valued cells (hardware, countries)
are split on ';' or ',' and kept in source order: the first listed country is
the reference for impact evaluation downstream. Cells are read by position,
found once per table; a field the table lacks reads blank. system_rows writes
every cell as text, numbers at full precision, so records parse back the same.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import cache
from operator import itemgetter
from types import MappingProxyType

from .catalog import RowError
from .errors import SystemsError
from .inputs import csv_line, parse_count, parse_date, parse_number, positions, read_csv, read_json

__all__ = [
    "SYSTEM_COLUMNS",
    "COVERAGE_METRICS",
    "CONFIDENCE_LEVELS",
    "SystemRecord",
    "CoverageCounts",
    "CoverageSummary",
    "parse_systems_table",
    "system_rows",
    "load_column_map",
    "coverage_summary",
    "eligible_systems",
]

SYSTEM_COLUMNS = [
    "name",
    "publication_date",
    "training_flop",
    "hardware_names",
    "hardware_quantity",
    "training_hours",
    "countries",
    "confidence",
    "finetuned",
]

CONFIDENCE_LEVELS = ("confident", "likely", "speculative", "unknown")

# a finetuned cell, stripped and lower-cased -> its value
_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "y"), True),
             **dict.fromkeys(("false", "0", "no", "n", ""), False)}


class SystemRecord(namedtuple("SystemRecord", SYSTEM_COLUMNS)):
    """One notable ML system: name (str), publication_date (date),
    training_flop (float), hardware_names (tuple of str), hardware_quantity
    (int), training_hours (float), countries (tuple of str), confidence (one
    of CONFIDENCE_LEVELS) and finetuned (bool); absent fields are None."""

    __slots__ = ()

    def __new__(cls, name, publication_date, training_flop=None, hardware_names=None,
                hardware_quantity=None, training_hours=None, countries=None,
                confidence="unknown", finetuned=False):
        if not name:
            raise ValueError("system name must be non-empty")
        for field_name, value in (("training_flop", training_flop),
                                  ("hardware_quantity", hardware_quantity),
                                  ("training_hours", training_hours)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{field_name} must be finite, got {value}")
        if training_flop is not None and training_flop <= 0:
            raise ValueError(f"training_flop must be > 0, got {training_flop}")
        if hardware_quantity is not None and hardware_quantity < 1:
            raise ValueError(f"hardware_quantity must be >= 1, got {hardware_quantity}")
        if training_hours is not None and training_hours <= 0:
            raise ValueError(f"training_hours must be > 0, got {training_hours}")
        if confidence not in CONFIDENCE_LEVELS:
            raise ValueError(f"confidence must be one of {CONFIDENCE_LEVELS}")
        return tuple.__new__(cls, (name, publication_date, training_flop, hardware_names,
                                   hardware_quantity, training_hours, countries, confidence,
                                   finetuned))

    @property
    def has_direct_inputs(self) -> bool:
        return self.training_hours is not None and self.hardware_quantity is not None

    @property
    def has_flop_inputs(self) -> bool:
        return self.training_flop is not None and bool(self.hardware_names)


# The columns of coverage.csv after its row label
COVERAGE_METRICS = ("systems", "flop", "hardware", "flop_and_hardware", "duration", "quantity",
                    "duration_and_quantity", "duration_quantity_hardware")


class CoverageCounts(namedtuple("CoverageCounts", COVERAGE_METRICS, defaults=(0,) * 8)):
    """Presence counts (int) for one slice of the dataset (Table-1 style columns)."""

    __slots__ = ()


class CoverageSummary(namedtuple("CoverageSummary", ("counts", "by_confidence"),
                                 defaults=(MappingProxyType({}),))):
    """The dataset's CoverageCounts, and a confidence level -> its CoverageCounts map."""

    __slots__ = ()

    @property
    def percentages(self) -> tuple[float, ...]:
        total = self.counts.systems
        if total == 0:
            return tuple(0.0 for _ in COVERAGE_METRICS)
        return tuple(100.0 * c / total for c in self.counts)

    def as_dict(self) -> dict:
        return {
            "number": self.counts._asdict(),
            "coverage_pct": dict(zip(COVERAGE_METRICS, self.percentages)),
            "confidence": {level: counts._asdict() for level, counts in self.by_confidence.items()},
        }

    def csv_rows(self) -> list[list]:
        """coverage.csv's rows under its header ("row", *COVERAGE_METRICS)."""
        rows = [["number", *self.counts]]
        rows.append(["coverage_pct", *(f"{p:.1f}" for p in self.percentages)])
        for level in CONFIDENCE_LEVELS:
            counts = self.by_confidence.get(level, CoverageCounts())
            rows.append([level, *counts])
        return rows


def load_column_map(path) -> dict[str, str]:
    """Column-mapping config JSON: upstream column name -> canonical field."""
    data = read_json(path, SystemsError, "column-map config")
    if not all(isinstance(v, str) for v in data.values()):
        raise SystemsError(f"column-map config {path} must map column names to field names")
    unknown = sorted(set(data.values()) - set(SYSTEM_COLUMNS))
    if unknown:
        raise SystemsError(f"column map {path} targets unknown fields: {unknown}")
    return data


def _split_multi(cell: str) -> tuple[str, ...] | None:
    parts = [p.strip() for p in cell.replace(";", ",").split(",")]
    parts = [p for p in parts if p]
    return tuple(parts) or None


def parse_systems_table(path, column_map=None) -> tuple[list[SystemRecord], list[RowError]]:
    """Read a systems CSV, optionally remapping upstream column names.

    Returns records in file order plus row-level errors for malformed rows.
    Repeated hardware and country cells are split once and share one tuple:
    few distinct values fill those columns. Raises SystemsError for a missing or unreadable file or
    when the name/publication_date columns cannot be found after mapping.
    """
    column_map = column_map or {}
    header, rows = read_csv(path, SystemsError, "systems table")
    at = positions(column_map.get(col, col) for col in header)
    for required in ("name", "publication_date"):
        if required not in at:
            raise SystemsError(f"systems table {path} lacks a column mapping to {required!r}")
    # a lacking column reads the blank cell appended after each row's len(header) cells
    cells = itemgetter(*(at.get(col, len(header)) for col in SYSTEM_COLUMNS))
    splits = cache(_split_multi)
    records: list[SystemRecord] = []
    errors: list[RowError] = []
    for line, row in rows:
        row.append("")
        name, date, flop, hardware, quantity, hours, countries, confidence, finetuned = cells(row)
        try:
            quantity = parse_count(quantity, "hardware_quantity")
            date = parse_date(date, "publication_date")
            finetuned = finetuned.strip().lower()
            if finetuned not in _BOOLEANS:
                raise ValueError(f"column 'finetuned': cannot parse boolean from {finetuned!r}")
            records.append(SystemRecord(
                name=name.strip(),
                publication_date=date,
                training_flop=parse_number(flop, "training_flop"),
                hardware_names=splits(hardware),
                hardware_quantity=quantity,
                training_hours=parse_number(hours, "training_hours"),
                countries=splits(countries),
                confidence=confidence.strip().lower() or "unknown",
                finetuned=_BOOLEANS[finetuned],
            ))
        except ValueError as exc:
            errors.append(RowError(line=line, message=str(exc)))
    return records, errors


def system_rows(systems):
    """Records as CSV lines of SYSTEM_COLUMNS cells, which parse back to the same records."""
    return (
        csv_line([
            s.name,
            s.publication_date.isoformat(),
            "" if s.training_flop is None else str(s.training_flop),
            ";".join(s.hardware_names) if s.hardware_names else "",
            "" if s.hardware_quantity is None else str(s.hardware_quantity),
            "" if s.training_hours is None else str(s.training_hours),
            ";".join(s.countries) if s.countries else "",
            s.confidence,
            "true" if s.finetuned else "false",
        ])
        for s in systems
    )


def coverage_summary(systems) -> CoverageSummary:
    """Presence counts and percentages, cross-tabulated by confidence.

    One pass counts the systems of each confidence and presence pattern.
    Conjunction columns are computed on the same rows as their conjuncts, so
    each conjunction count is bounded by each conjunct's count.
    """
    patterns = Counter(
        (s.confidence, s.training_flop is not None, bool(s.hardware_names),
         s.training_hours is not None, s.hardware_quantity is not None)
        for s in systems
    )
    totals = {level: [0] * len(COVERAGE_METRICS) for level in CONFIDENCE_LEVELS}
    for (level, flop, hardware, duration, quantity), n in patterns.items():
        present = (True, flop, hardware, flop and hardware, duration, quantity,
                   duration and quantity, duration and quantity and hardware)
        totals[level] = [total + n * p for total, p in zip(totals[level], present)]
    return CoverageSummary(
        counts=CoverageCounts(*map(sum, zip(*totals.values()))),
        by_confidence={level: CoverageCounts(*counts) for level, counts in totals.items()},
    )


def eligible_systems(systems):
    """Partition systems into (eligible, excluded-with-reason) for estimation.

    Excluded: more than one distinct hardware name documented (multi-step
    training on different hardware), or neither the direct inputs
    (duration and quantity) nor the compute inputs (FLOP and hardware) are
    present. A single ambiguous name ("A100") stays eligible; its ambiguity
    becomes a value interval downstream.
    """
    eligible: list[SystemRecord] = []
    excluded: list[tuple[SystemRecord, str]] = []
    for record in systems:
        if record.hardware_names and len(set(record.hardware_names)) > 1:
            excluded.append((record, "multi-hardware"))
        elif not (record.has_direct_inputs or record.has_flop_inputs):
            excluded.append((record, "insufficient-data"))
        else:
            eligible.append(record)
    return eligible, excluded
