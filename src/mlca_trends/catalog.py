"""Graphics-card catalog: ingestion, cross-validation merge, and lookup.

Card tables are CSV files with the canonical header (see CARD_COLUMNS); empty
cells mean "not documented". Two tables covering the same cards can be merged
to cross-validate their specifications, with a datasheet override table
settling divergences. Ambiguous card names ("A100") resolve to a candidate
set plus a reference pick driven by an explicit plausibility config.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from functools import cached_property

from .errors import CatalogError, UnresolvedCardError
from .inputs import csv_line, parse_date, parse_number, positions, read_csv, read_json

__all__ = [
    "CARD_COLUMNS",
    "CARD_SOURCES",
    "LATEST_RELEASE_YEAR",
    "CardSpec",
    "RowError",
    "MergeReport",
    "DivergentField",
    "CardReference",
    "CardIndex",
    "normalize_name",
    "parse_card_table",
    "card_rows",
    "merge_catalogs",
    "load_overrides",
    "load_plausibility",
    "resolve_card_reference",
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

# Field names the override table accepts: each characteristic by its
# spec-level name or its attribute name, and release_date. The characteristics
# also name the card series of trends.csv (pipeline._TRENDS).
_CHARACTERISTICS = {"die_area": "die_area_mm2", "process_node": "process_node_nm",
                    "memory_size": "memory_gb", "tdp": "tdp_w"}
_FIELD_ALIASES = {**_CHARACTERISTICS,
                  **{name: name for name in (*_CHARACTERISTICS.values(), "release_date")}}

# Fields compared when cross-validating two sources. Release dates within
# 30 days count as equal (announcement vs availability).
_COMPARED_FIELDS = ("die_area_mm2", "process_node_nm", "memory_gb", "tdp_w", "release_date")
_RELEASE_DATE_TOLERANCE_DAYS = 30
# Latest accepted release year: a fixed year, not the clock's, so that whether
# a row is accepted does not depend on the day of the run. 2030 leaves room for
# cards announced years ahead of release; raise it before 2030 ends (a test in
# tests/test_catalog.py fails once the clock's year passes it).
LATEST_RELEASE_YEAR = 2030

_VENDOR_PREFIXES = frozenset(
    {"nvidia", "amd", "google", "huawei", "cerebras", "intel", "graphcore"}
)
_PUNCT_RE = re.compile(r"[^\w\s]|_")


class CardSpec(namedtuple("CardSpec", (*CARD_COLUMNS, "source"),
                          defaults=(None,) * 9 + ("other",))):
    """One graphics-card model: name, vendor (str), release_date (date), then
    die_area_mm2, process_node_nm, memory_gb (float), memory_type (str),
    tdp_w and the peak_* figures (float, FLOP/s), any of them None when
    absent, and source (one of CARD_SOURCES)."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.name:
            raise ValueError("card name must be non-empty")
        if self.source not in CARD_SOURCES:
            raise ValueError(f"unknown source {self.source!r}; expected one of {CARD_SOURCES}")
        if not 1990 <= self.release_date.year <= LATEST_RELEASE_YEAR:
            raise ValueError(f"release_date {self.release_date} outside "
                             f"[1990, {LATEST_RELEASE_YEAR}]")
        for field_name in _NUMBER_COLUMNS:  # memory may be 0, no other figure may
            value = getattr(self, field_name)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{field_name} must be finite, got {value}")
            if field_name == "memory_gb" and value < 0:
                raise ValueError(f"{field_name} must be >= 0, got {value}")
            if field_name != "memory_gb" and value <= 0:
                raise ValueError(f"{field_name} must be > 0, got {value}")
        return self

    @cached_property  # no __slots__, so the instance dict holds it
    def normalized_name(self) -> str:
        return normalize_name(self.name)

    def updated(self, **changes) -> CardSpec:
        """The card with these fields changed, checked as a new card is."""
        return CardSpec(**{**self._asdict(), **changes})


class RowError(namedtuple("RowError", ("line", "message"))):
    """A row that could not be parsed: its 1-based line number and the reason."""

    __slots__ = ()


class DivergentField(namedtuple("DivergentField",
                                ("name", "field", "value_a", "value_b", "resolution"))):
    """A compared field on which two card tables disagree: the card's name,
    the field, each table's value, and the resolution, "datasheet-override"
    or "unresolved"."""

    __slots__ = ()


class MergeReport(namedtuple("MergeReport", ("total_cards", "validated", "divergent"))):
    """Counts of a catalog merge and its divergent fields (a tuple of DivergentField)."""

    __slots__ = ()


class CardReference(namedtuple("CardReference", ("query_name", "candidates", "reference"))):
    """Resolution of a queried card name (str) to candidates (a tuple of
    CardSpec) plus a reference pick, one of them."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.candidates:
            raise ValueError("candidates must be non-empty")
        if self.reference not in self.candidates:
            raise ValueError("reference must be one of the candidates")
        return self


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
    header, rows = read_csv(path, CatalogError, "card table", CARD_COLUMNS)
    at = positions(header)
    cards: list[CardSpec] = []
    errors: list[RowError] = []
    for line, row in rows:
        try:
            cards.append(
                CardSpec(
                    name=row[at["name"]].strip(),
                    vendor=row[at["vendor"]].strip(),
                    release_date=parse_date(row[at["release_date"]], "release_date"),
                    memory_type=row[at["memory_type"]].strip() or None,
                    source=source,
                    **{col: parse_number(row[at[col]], col) for col in _NUMBER_COLUMNS},
                )
            )
        except ValueError as exc:
            errors.append(RowError(line=line, message=str(exc)))
    return cards, errors


def card_rows(cards):
    """Cards as CSV lines of CARD_COLUMNS cells, which parse back to the same cards."""
    return (
        csv_line(["" if getattr(card, col) is None else str(getattr(card, col))
                  for col in CARD_COLUMNS])
        for card in cards
    )


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
    header, rows = read_csv(path, CatalogError, "override table", ("name", "field", "value"))
    at = positions(header)
    for line, row in rows:
        name, raw_field, raw = (row[at[col]] for col in ("name", "field", "value"))
        field = _FIELD_ALIASES.get(raw_field.strip())
        try:
            if field is None:
                raise ValueError(f"unknown field {raw_field!r}")
            value = (parse_date(raw, field) if field == "release_date"
                     else parse_number(raw, field, required=True))
        except ValueError as exc:
            raise CatalogError(f"override table {path}, line {line}: {exc}") from None
        overrides[(normalize_name(name), field)] = value
    return overrides


def merge_catalogs(a, b, overrides=None) -> tuple[list[CardSpec], MergeReport]:
    """Merge two card tables, cross-validating shared cards.

    Cards present in both inputs with no divergence among mutually-present
    compared fields are counted validated. Divergent fields are settled by
    the override table (datasheet values are the reference); without an
    override the first input's value is kept and the entry is flagged
    unresolved. Single-source cards pass through unchanged, so with an empty
    second table the first is only checked for duplicate names. Overrides
    apply to the merged values unconditionally and must reference a known card.
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
        merged.append(card_a.updated(**updates) if updates else card_a)

    for key, card_b in index_b.items():
        if key not in index_a:
            merged.append(card_b)

    merged_by_key = {card.normalized_name: i for i, card in enumerate(merged)}
    for (key, field), value in overrides.items():
        if key not in merged_by_key:
            raise CatalogError(f"override table references unknown card name {key!r}")
        i = merged_by_key[key]
        if getattr(merged[i], field) != value:
            try:
                merged[i] = merged[i].updated(**{field: value})
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

    by_name = {c.normalized_name: c for c in candidates}
    ranked = [by_name[name] for name in (plausibility or {}).get(nq, []) if name in by_name]
    reference = ranked[0] if ranked else min(
        candidates, key=lambda c: (c.release_date, c.normalized_name))
    return CardReference(query_name=query, candidates=tuple(candidates), reference=reference)

