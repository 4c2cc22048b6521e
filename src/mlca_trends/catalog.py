"""Graphics-card catalog: ingestion, cross-validation merge, and lookup.

Card tables are CSV files with the canonical header (see CARD_COLUMNS); empty
cells mean "not documented". Two tables covering the same cards can be merged
to cross-validate their specifications, with a datasheet override table
settling divergences. Ambiguous card names ("A100") resolve to a candidate
set plus a reference pick driven by an explicit plausibility config.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import CatalogError, UnresolvedCardError
from .inputs import parse_date, parse_number, read_csv, read_json, write_csv

__all__ = [
    "CARD_COLUMNS",
    "CARD_SOURCES",
    "CardSpec",
    "RowError",
    "MergeReport",
    "DivergentField",
    "CardReference",
    "CardIndex",
    "normalize_name",
    "parse_card_table",
    "serialize_card_table",
    "merge_catalogs",
    "load_overrides",
    "load_plausibility",
    "resolve_card_reference",
    "characteristic_series",
]

CARD_COLUMNS = [
    "name",
    "vendor",
    "release_date",
    "die_area_mm2",
    "process_node_nm",
    "memory_gb",
    "memory_type",
    "tdp_w",
    "peak_fp64",
    "peak_fp32",
    "peak_fp16",
    "peak_tensor",
]

_NUMBER_COLUMNS = [col for col in CARD_COLUMNS[3:] if col != "memory_type"]

CARD_SOURCES = ("techpowerup", "wiki", "datasheet", "other")

# Spec-level field names accepted wherever a card field is selected.
_FIELD_ALIASES = {
    "die_area": "die_area_mm2",
    "process_node": "process_node_nm",
    "memory_size": "memory_gb",
    "tdp": "tdp_w",
    "die_area_mm2": "die_area_mm2",
    "process_node_nm": "process_node_nm",
    "memory_gb": "memory_gb",
    "tdp_w": "tdp_w",
    "release_date": "release_date",
}

# Fields compared when cross-validating two sources. Release dates within
# 30 days count as equal (announcement vs availability).
_COMPARED_FIELDS = ("die_area_mm2", "process_node_nm", "memory_gb", "tdp_w", "release_date")
_RELEASE_DATE_TOLERANCE_DAYS = 30

_VENDOR_PREFIXES = frozenset(
    {"nvidia", "amd", "google", "huawei", "cerebras", "intel", "graphcore"}
)
_PUNCT_RE = re.compile(r"[^\w\s]|_")


@dataclass(frozen=True)
class CardSpec:
    """One graphics-card model. Peak fields are FLOP/s; any may be absent."""

    name: str
    vendor: str
    release_date: dt.date
    die_area_mm2: float | None = None
    process_node_nm: float | None = None
    memory_gb: float | None = None
    memory_type: str | None = None
    tdp_w: float | None = None
    peak_fp64: float | None = None
    peak_fp32: float | None = None
    peak_fp16: float | None = None
    peak_tensor: float | None = None
    source: str = "other"

    def __post_init__(self):
        if not self.name:
            raise ValueError("card name must be non-empty")
        if self.source not in CARD_SOURCES:
            raise ValueError(f"unknown source {self.source!r}; expected one of {CARD_SOURCES}")
        if not 1990 <= self.release_date.year <= dt.date.today().year:
            raise ValueError(f"release_date {self.release_date} outside [1990, current year]")
        for field_name, lower_ok in (
            ("die_area_mm2", False),
            ("process_node_nm", False),
            ("memory_gb", True),
            ("tdp_w", False),
            ("peak_fp64", False),
            ("peak_fp32", False),
            ("peak_fp16", False),
            ("peak_tensor", False),
        ):
            value = getattr(self, field_name)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{field_name} must be finite, got {value}")
            if lower_ok and value < 0:
                raise ValueError(f"{field_name} must be >= 0, got {value}")
            if not lower_ok and value <= 0:
                raise ValueError(f"{field_name} must be > 0, got {value}")

    @cached_property  # frozen without __slots__, so the instance dict holds it
    def normalized_name(self) -> str:
        return normalize_name(self.name)


@dataclass(frozen=True)
class RowError:
    """A row that could not be parsed, with its 1-based line number."""

    line: int
    message: str


@dataclass(frozen=True)
class DivergentField:
    name: str
    field: str
    value_a: object
    value_b: object
    resolution: str  # "datasheet-override" or "unresolved"


@dataclass(frozen=True)
class MergeReport:
    total_cards: int
    validated: int
    divergent: tuple[DivergentField, ...]


@dataclass(frozen=True)
class CardReference:
    """Resolution of a queried card name to candidates plus a reference pick."""

    query_name: str
    candidates: tuple[CardSpec, ...]
    reference: CardSpec

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("candidates must be non-empty")
        if self.reference not in self.candidates:
            raise ValueError("reference must be one of the candidates")


def normalize_name(name: str) -> str:
    """Case/whitespace/punctuation-insensitive card name, vendor prefix dropped."""
    text = _PUNCT_RE.sub(" ", name.lower())
    tokens = text.split()
    while tokens and tokens[0] in _VENDOR_PREFIXES:
        tokens = tokens[1:]
    return " ".join(tokens)


def parse_card_table(path, source: str) -> tuple[list[CardSpec], list[RowError]]:
    """Read a card table CSV. Returns (cards, row_errors).

    Raises CatalogError for a missing or unreadable file or a header that
    does not match CARD_COLUMNS. Rows whose mandatory fields cannot be parsed
    become RowError entries instead of cards; they are never silently dropped.
    """
    if source not in CARD_SOURCES:
        raise CatalogError(f"unknown source {source!r}; expected one of {CARD_SOURCES}")
    _, rows = read_csv(path, CatalogError, "card table", CARD_COLUMNS)
    cards: list[CardSpec] = []
    errors: list[RowError] = []
    for line, row in rows:
        try:
            cards.append(
                CardSpec(
                    name=row["name"].strip(),
                    vendor=row["vendor"].strip(),
                    release_date=parse_date(row["release_date"], "release_date"),
                    memory_type=row["memory_type"].strip() or None,
                    source=source,
                    **{col: parse_number(row[col], col) for col in _NUMBER_COLUMNS},
                )
            )
        except ValueError as exc:
            errors.append(RowError(line=line, message=str(exc)))
    return cards, errors


def serialize_card_table(cards, path) -> None:
    """Write cards back to the canonical CSV schema (parse round-trips)."""
    write_csv(path, CARD_COLUMNS, (
        ["" if getattr(card, col) is None else str(getattr(card, col)) for col in CARD_COLUMNS]
        for card in cards
    ))


def _index_by_name(cards, label: str) -> dict[str, CardSpec]:
    index: dict[str, CardSpec] = {}
    for card in cards:
        key = card.normalized_name
        if key in index:
            raise CatalogError(f"duplicate card name {card.name!r} in {label} input")
        index[key] = card
    return index


def _fields_equal(field: str, left, right) -> bool:
    if field == "release_date":
        return abs((left - right).days) <= _RELEASE_DATE_TOLERANCE_DAYS
    return left == right


def load_overrides(path) -> dict[tuple[str, str], object]:
    """Datasheet override CSV `name,field,value` -> {(normalized name, field): value}."""
    overrides: dict[tuple[str, str], object] = {}
    _, rows = read_csv(path, CatalogError, "override table", ("name", "field", "value"))
    for line, row in rows:
        field = _FIELD_ALIASES.get(row["field"].strip())
        try:
            if field is None:
                raise ValueError(f"unknown field {row['field']!r}")
            raw = row["value"]
            value = (parse_date(raw, field) if field == "release_date"
                     else parse_number(raw, field, required=True))
        except ValueError as exc:
            raise CatalogError(f"override table {path}, line {line}: {exc}") from None
        overrides[(normalize_name(row["name"]), field)] = value
    return overrides


def merge_catalogs(a, b, overrides=None) -> tuple[list[CardSpec], MergeReport]:
    """Merge two card tables, cross-validating shared cards.

    Cards present in both inputs with no divergence among mutually-present
    compared fields are counted validated. Divergent fields are settled by
    the override table (datasheet values are the reference); without an
    override the first input's value is kept and the entry is flagged
    unresolved. Single-source cards pass through unchanged. Overrides apply
    to the merged values unconditionally and must reference a known card.
    """
    overrides = dict(overrides or {})
    index_a = _index_by_name(a, "first")
    index_b = _index_by_name(b, "second")

    merged: list[CardSpec] = []
    divergent: list[DivergentField] = []
    validated = 0
    for key, card_a in index_a.items():
        card_b = index_b.get(key)
        if card_b is None:
            merged.append(card_a)
            continue
        updates = {}
        card_divergences = []
        for field in _COMPARED_FIELDS:
            va, vb = getattr(card_a, field), getattr(card_b, field)
            if va is None and vb is not None:
                updates[field] = vb  # complementary information, not a divergence
            elif va is not None and vb is not None and not _fields_equal(field, va, vb):
                override = overrides.get((key, field))
                card_divergences.append(
                    DivergentField(
                        name=card_a.name,
                        field=field,
                        value_a=va,
                        value_b=vb,
                        resolution="datasheet-override" if override is not None else "unresolved",
                    )
                )
        # Fill remaining absent non-compared fields from the second source.
        for field in ("memory_type", "peak_fp64", "peak_fp32", "peak_fp16", "peak_tensor"):
            if getattr(card_a, field) is None and getattr(card_b, field) is not None:
                updates[field] = getattr(card_b, field)
        if not card_divergences:
            validated += 1
        divergent.extend(card_divergences)
        merged.append(replace(card_a, **updates) if updates else card_a)

    for key, card_b in index_b.items():
        if key not in index_a:
            merged.append(card_b)

    known = {card.normalized_name for card in merged}
    merged_by_key = {card.normalized_name: i for i, card in enumerate(merged)}
    for (key, field), value in overrides.items():
        if key not in known:
            raise CatalogError(f"override table references unknown card name {key!r}")
        i = merged_by_key[key]
        if getattr(merged[i], field) != value:
            try:
                merged[i] = replace(merged[i], **{field: value})
            except ValueError as exc:  # say, a release date in the future
                raise CatalogError(f"override for {key!r} {field}: {exc}") from None

    report = MergeReport(
        total_cards=len(merged), validated=validated, divergent=tuple(divergent)
    )
    return merged, report


def load_plausibility(path) -> dict[str, list[str]]:
    """Plausibility config JSON: query name -> ordered candidate names."""
    data = read_json(path, CatalogError, "plausibility config")
    if not all(isinstance(v, list) and all(isinstance(s, str) for s in v) for v in data.values()):
        raise CatalogError(f"plausibility config {path} must map names to lists of names")
    return {normalize_name(k): [normalize_name(s) for s in v] for k, v in data.items()}


def contains_tokens(name_tokens: list[str], query_tokens: list[str]) -> bool:
    span = len(query_tokens)
    return any(
        name_tokens[i : i + span] == query_tokens
        for i in range(len(name_tokens) - span + 1)
    )


class CardIndex:
    """The catalog's cards in order, by normalized name and by each name
    token (as (card, name tokens) pairs), both lists in catalog order."""

    def __init__(self, cards):
        self.cards = list(cards)
        self.by_name: dict[str, list[CardSpec]] = {}
        self.by_token: dict[str, list[tuple[CardSpec, list[str]]]] = {}
        for card in self.cards:
            name = card.normalized_name
            self.by_name.setdefault(name, []).append(card)
            tokens = name.split()
            for token in dict.fromkeys(tokens):
                self.by_token.setdefault(token, []).append((card, tokens))


def resolve_card_reference(query: str, catalog, plausibility=None) -> CardReference:
    """Resolve a (possibly ambiguous) card name against the catalog.

    Exact normalized matches win; otherwise every card whose name contains
    the query tokens contiguously ("A100" -> all A100 variants) becomes a
    candidate. The reference is the first plausibility-config entry present
    among the candidates, falling back to the earliest-released variant.
    Deterministic for a fixed config. catalog is a CardIndex (build one to
    resolve many names) or cards to index: an exact match is one dict
    lookup, and containment walks the rarest query token's posting list.
    """
    index = catalog if isinstance(catalog, CardIndex) else CardIndex(catalog)
    if not index.cards:
        raise CatalogError("cannot resolve against an empty catalog")
    nq = normalize_name(query)
    if not nq:
        raise UnresolvedCardError(query)
    candidates = index.by_name.get(nq)
    if not candidates:
        q_tokens = nq.split()
        postings = min((index.by_token.get(t, ()) for t in q_tokens), key=len)
        candidates = [card for card, tokens in postings if contains_tokens(tokens, q_tokens)]
    if not candidates:
        raise UnresolvedCardError(query)

    reference = None
    ranked = (plausibility or {}).get(nq, [])
    by_name = {c.normalized_name: c for c in candidates}
    for preferred in ranked:
        if preferred in by_name:
            reference = by_name[preferred]
            break
    if reference is None:
        reference = min(candidates, key=lambda c: (c.release_date, c.normalized_name))
    return CardReference(query_name=query, candidates=tuple(candidates), reference=reference)


def characteristic_series(catalog, field: str) -> list[tuple[dt.date, float]]:
    """Chronological (release_date, value) pairs for one card characteristic.

    field is one of die_area, process_node, memory_size, tdp (attribute
    names are accepted too). Cards lacking the field are skipped. The result
    feeds exp_trend directly.
    """
    attr = _FIELD_ALIASES.get(field)
    if attr is None or attr == "release_date":
        raise CatalogError(
            f"unknown characteristic {field!r}; expected die_area, process_node, "
            f"memory_size, or tdp"
        )
    points = [
        (card.release_date, float(getattr(card, attr)), card.normalized_name)
        for card in catalog
        if getattr(card, attr) is not None
    ]
    points.sort(key=lambda item: (item[0], item[2]))
    return [(d, v) for d, v, _ in points]
