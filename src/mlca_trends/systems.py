"""Notable ML-systems table: ingestion, coverage statistics, eligibility.

The canonical CSV schema is SYSTEM_COLUMNS; exports from upstream databases
with drifting headers are adapted through a column-mapping config (JSON,
upstream column -> canonical field). Multi-valued cells (hardware, countries)
are split on ';' or ',' and kept in source order: the first listed country is
the reference for impact evaluation downstream.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import RowError
from .errors import SystemsError
from .inputs import parse_count, parse_date, parse_number, read_csv, read_json

__all__ = [
    "SYSTEM_COLUMNS",
    "CONFIDENCE_LEVELS",
    "SystemRecord",
    "CoverageCounts",
    "CoverageSummary",
    "parse_systems_table",
    "serialize_systems_table",
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

_TRUE_WORDS = frozenset({"true", "1", "yes", "y"})
_FALSE_WORDS = frozenset({"false", "0", "no", "n", ""})


@dataclass(frozen=True)
class SystemRecord:
    """One notable ML system; absent fields are None."""

    name: str
    publication_date: dt.date
    training_flop: float | None = None
    hardware_names: tuple[str, ...] | None = None
    hardware_quantity: int | None = None
    training_hours: float | None = None
    countries: tuple[str, ...] | None = None
    confidence: str = "unknown"
    finetuned: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("system name must be non-empty")
        for field_name in ("training_flop", "hardware_quantity", "training_hours"):
            value = getattr(self, field_name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{field_name} must be finite, got {value}")
        if self.training_flop is not None and self.training_flop <= 0:
            raise ValueError(f"training_flop must be > 0, got {self.training_flop}")
        if self.hardware_quantity is not None and self.hardware_quantity < 1:
            raise ValueError(f"hardware_quantity must be >= 1, got {self.hardware_quantity}")
        if self.training_hours is not None and self.training_hours <= 0:
            raise ValueError(f"training_hours must be > 0, got {self.training_hours}")
        if self.confidence not in CONFIDENCE_LEVELS:
            raise ValueError(f"confidence must be one of {CONFIDENCE_LEVELS}")

    @property
    def has_direct_inputs(self) -> bool:
        return self.training_hours is not None and self.hardware_quantity is not None

    @property
    def has_flop_inputs(self) -> bool:
        return self.training_flop is not None and bool(self.hardware_names)


@dataclass(frozen=True)
class CoverageCounts:
    """Presence counts for one slice of the dataset (Table-1 style columns)."""

    systems: int = 0
    flop: int = 0
    hardware: int = 0
    flop_and_hardware: int = 0
    duration: int = 0
    quantity: int = 0
    duration_and_quantity: int = 0
    duration_quantity_hardware: int = 0

    METRICS = (
        "systems",
        "flop",
        "hardware",
        "flop_and_hardware",
        "duration",
        "quantity",
        "duration_and_quantity",
        "duration_quantity_hardware",
    )

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(getattr(self, m) for m in self.METRICS)


@dataclass(frozen=True)
class CoverageSummary:
    counts: CoverageCounts
    by_confidence: dict[str, CoverageCounts] = field(default_factory=dict)

    @property
    def percentages(self) -> tuple[float, ...]:
        total = self.counts.systems
        if total == 0:
            return tuple(0.0 for _ in CoverageCounts.METRICS)
        return tuple(100.0 * c / total for c in self.counts.as_tuple())

    def as_dict(self) -> dict:
        return {
            "number": dict(zip(CoverageCounts.METRICS, self.counts.as_tuple())),
            "coverage_pct": dict(zip(CoverageCounts.METRICS, self.percentages)),
            "confidence": {
                level: dict(zip(CoverageCounts.METRICS, counts.as_tuple()))
                for level, counts in self.by_confidence.items()
            },
        }

    def csv_rows(self) -> list[list]:
        rows = [["row", *CoverageCounts.METRICS]]
        rows.append(["number", *self.counts.as_tuple()])
        rows.append(["coverage_pct", *(f"{p:.1f}" for p in self.percentages)])
        for level in CONFIDENCE_LEVELS:
            counts = self.by_confidence.get(level, CoverageCounts())
            rows.append([level, *counts.as_tuple()])
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


def _parse_row(row: dict[str, str]) -> SystemRecord:
    def get(name: str) -> str:
        return row.get(name, "").strip()

    quantity = parse_count(row.get("hardware_quantity"), "hardware_quantity")
    pub_date = parse_date(row.get("publication_date", ""), "publication_date")
    confidence = get("confidence").lower() or "unknown"
    finetuned_cell = get("finetuned").lower()
    if finetuned_cell in _TRUE_WORDS:
        finetuned = True
    elif finetuned_cell in _FALSE_WORDS:
        finetuned = False
    else:
        raise ValueError(f"column 'finetuned': cannot parse boolean from {finetuned_cell!r}")

    return SystemRecord(
        name=get("name"),
        publication_date=pub_date,
        training_flop=parse_number(row.get("training_flop"), "training_flop"),
        hardware_names=_split_multi(get("hardware_names")),
        hardware_quantity=quantity,
        training_hours=parse_number(row.get("training_hours"), "training_hours"),
        countries=_split_multi(get("countries")),
        confidence=confidence,
        finetuned=finetuned,
    )


def parse_systems_table(path, column_map=None) -> tuple[list[SystemRecord], list[RowError]]:
    """Read a systems CSV, optionally remapping upstream column names.

    Returns records in file order plus row-level errors for malformed rows.
    Raises SystemsError for a missing or unreadable file or when the
    name/publication_date columns cannot be found after mapping.
    """
    column_map = column_map or {}
    header, rows = read_csv(path, SystemsError, "systems table")
    mapped = {column_map.get(col, col): col for col in header}
    for required in ("name", "publication_date"):
        if required not in mapped:
            raise SystemsError(f"systems table {path} lacks a column mapping to {required!r}")
    records: list[SystemRecord] = []
    errors: list[RowError] = []
    for line, row in rows:
        try:
            records.append(_parse_row({canon: row[col] for canon, col in mapped.items()}))
        except ValueError as exc:
            errors.append(RowError(line=line, message=str(exc)))
    return records, errors


def serialize_systems_table(systems, path) -> None:
    """Write records back to the canonical schema (parse round-trips)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SYSTEM_COLUMNS)
        for s in systems:
            writer.writerow(
                [
                    s.name,
                    s.publication_date.isoformat(),
                    "" if s.training_flop is None else str(s.training_flop),
                    ";".join(s.hardware_names) if s.hardware_names else "",
                    "" if s.hardware_quantity is None else str(s.hardware_quantity),
                    "" if s.training_hours is None else str(s.training_hours),
                    ";".join(s.countries) if s.countries else "",
                    s.confidence,
                    "true" if s.finetuned else "false",
                ]
            )


def _counts_for(systems) -> CoverageCounts:
    flop = [s.training_flop is not None for s in systems]
    hardware = [bool(s.hardware_names) for s in systems]
    duration = [s.training_hours is not None for s in systems]
    quantity = [s.hardware_quantity is not None for s in systems]
    return CoverageCounts(
        systems=len(systems),
        flop=sum(flop),
        hardware=sum(hardware),
        flop_and_hardware=sum(f and h for f, h in zip(flop, hardware)),
        duration=sum(duration),
        quantity=sum(quantity),
        duration_and_quantity=sum(d and q for d, q in zip(duration, quantity)),
        duration_quantity_hardware=sum(
            d and q and h for d, q, h in zip(duration, quantity, hardware)
        ),
    )


def coverage_summary(systems) -> CoverageSummary:
    """Presence counts and percentages, cross-tabulated by confidence.

    Conjunction columns are computed on the same rows as their conjuncts, so
    each conjunction count is bounded by each conjunct's count.
    """
    systems = list(systems)
    by_confidence = {
        level: _counts_for([s for s in systems if s.confidence == level])
        for level in CONFIDENCE_LEVELS
    }
    return CoverageSummary(counts=_counts_for(systems), by_confidence=by_confidence)


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
