"""Life-cycle impacts of training runs: embodied and usage phases.

Impacts are (energy kWh, GWP kgCO2eq, ADPe kgSbeq) triples. Card production
impacts follow a linear model in die area and memory size with a fixed
per-board term; the factor table is configuration, not code. Usage impacts
come from the electricity mix of the producing country; embodied impacts are
amortized over the share of the hardware's useful life the training consumed.
Server memory is deliberately modeled with zero impact and zero energy so
results stay comparable with card-only accounting; an extended memory model
can be added behind a factor entry later.

The model is stated once, in plain floats: `production_impact`,
`amortized_cards`, `training_energy` and `usage_impact` are its formulas, and
`system_impact` combines them in their order. `ImpactVector` is a validated
record with no arithmetic. What depends on the card alone, its server profile
and production-plus-CPU vector, is computed once per card for a whole
`impact_stage` pass.

A carbon-intensity scenario multiplies a mix's intensity by (1-ratio)^n,
n being the whole years since 2019 at system release, with ratio in [0, 1].
`scenario_gwp` applies it to a system's reference usage phase only (the
reference card under the first-listed country's mix); embodied impacts stay
fixed.
"""

from __future__ import annotations

import datetime as dt
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .catalog import CardReference, CardSpec, contains_tokens, normalize_name
from .errors import CannotEstimateError, LcaError, UnknownCountryError
from .inputs import parse_count, parse_number, read_csv, read_json
from .intervals import EstimateInterval

__all__ = [
    "WORLD_MIX_CODE",
    "SCENARIO_BASE_YEAR",
    "ImpactVector",
    "ImpactFactors",
    "ServerProfile",
    "ServerProfileTable",
    "ElectricityMix",
    "LcaConstants",
    "SystemImpact",
    "ShareSummary",
    "load_mix_table",
    "load_impact_factors",
    "load_constants",
    "load_server_profiles",
    "production_impact",
    "amortized_cards",
    "training_energy",
    "usage_impact",
    "apply_ci_scenario",
    "system_impact",
    "scenario_gwp",
    "embodied_share_table",
]

WORLD_MIX_CODE = "WLD"  # pseudo-country for multi-national collaborations
SCENARIO_BASE_YEAR = 2019


@dataclass(frozen=True)
class ImpactVector:
    """(energy, GWP, ADPe) triple; components finite and never negative."""

    energy_kwh: float = 0.0
    gwp_kg: float = 0.0
    adpe_kgsb: float = 0.0

    COMPONENTS = ("energy_kwh", "gwp_kg", "adpe_kgsb")

    def __post_init__(self):
        _nonnegative(self.energy_kwh, self.gwp_kg, self.adpe_kgsb)


def _nonnegative(*components: float) -> tuple[float, ...]:
    """The (energy, GWP, ADPe) components, once each is finite and >= 0."""
    for name, value in zip(ImpactVector.COMPONENTS, components):
        if not 0 <= value < math.inf:  # also false for nan
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return components


@dataclass(frozen=True)
class ImpactFactors:
    """Production impact factors: per cm^2 of die, per GB of memory (fixed
    density), per board, and per CPU. Node-independent by design; a
    node-dependent table is an extension hook, not the default."""

    logic_per_cm2: ImpactVector
    memory_per_gb: ImpactVector
    board_base: ImpactVector
    cpu_production: ImpactVector


@dataclass(frozen=True)
class ServerProfile:
    gpus_per_server: int
    cpus_per_server: int
    cpu_tdp_w: float

    def __post_init__(self):
        if not (1 <= self.gpus_per_server < math.inf and 1 <= self.cpus_per_server < math.inf):
            raise ValueError("server must hold a finite count of at least one GPU and one CPU")
        if not 0 < self.cpu_tdp_w < math.inf:
            raise ValueError(f"cpu_tdp_w must be finite and > 0, got {self.cpu_tdp_w}")

    @property
    def cpus_per_gpu(self) -> float:
        return self.cpus_per_server / self.gpus_per_server


@dataclass(frozen=True)
class ServerProfileTable:
    """Name-pattern rules mapping cards to server layouts.

    Rules match when the pattern's tokens appear contiguously in the
    normalized card name; first matching rule wins, else the default
    (workstation-style) profile applies.
    """

    default: ServerProfile
    rules: tuple[tuple[str, ServerProfile], ...] = ()
    _rule_tokens: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # rule patterns are normalized once, here
        tokens = tuple((normalize_name(p).split(), profile) for p, profile in self.rules)
        object.__setattr__(self, "_rule_tokens", tokens)

    def select(self, card: CardSpec) -> ServerProfile:
        name_tokens = card.normalized_name.split()
        return next(
            (p for tokens, p in self._rule_tokens if contains_tokens(name_tokens, tokens)),
            self.default,
        )


@dataclass(frozen=True)
class ElectricityMix:
    country: str
    carbon_intensity_g_per_kwh: float
    adpe_kgsb_per_kwh: float

    def __post_init__(self):
        if not (0 <= self.carbon_intensity_g_per_kwh < math.inf
                and 0 <= self.adpe_kgsb_per_kwh < math.inf):
            raise ValueError("mix intensities must be finite and >= 0")


@dataclass(frozen=True)
class LcaConstants:
    """Datacenter constants: near-optimal PUE, 3-year lifespan, 50% average
    lifetime utilization, 100% processor usage during training."""

    pue: float = 1.1
    lifespan_hours: float = 26280.0
    avg_lifetime_utilization: float = 0.5
    training_usage: float = 1.0

    def __post_init__(self):
        if not 1 <= self.pue < math.inf:
            raise ValueError(f"pue must be finite and >= 1, got {self.pue}")
        if not 0 < self.lifespan_hours < math.inf:
            raise ValueError(f"lifespan_hours must be finite and > 0, got {self.lifespan_hours}")
        for name in ("avg_lifetime_utilization", "training_usage"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")

    @property
    def amortizable_hours(self) -> float:
        return self.lifespan_hours * self.avg_lifetime_utilization


@dataclass(frozen=True)
class SystemImpact:
    """Per-metric impact intervals for one system, plus the reference-phase
    split and the reference mix (the first-listed country's), which a
    carbon-intensity scenario reprices."""

    system_name: str
    publication_date: dt.date
    energy_kwh: EstimateInterval
    gwp_kg: EstimateInterval
    adpe_kgsb: EstimateInterval
    embodied_ref: ImpactVector
    total_ref: ImpactVector
    method: str
    mix_ref: ElectricityMix


@dataclass(frozen=True)
class ShareSummary:
    """Five-number summary plus mean of embodied shares (percent)."""

    metric: str
    min: float
    q1: float
    median: float
    mean: float
    q3: float
    max: float
    n: int
    excluded: int


_FACTOR_ENTRIES = ("logic_per_cm2", "memory_per_gb", "board_base", "cpu_production")


def load_impact_factors(path) -> ImpactFactors:
    data = read_json(path, LcaError, "impact-factor config")
    entries = {}
    for key in _FACTOR_ENTRIES:
        entry = data.get(key)
        if not isinstance(entry, dict):
            raise LcaError(f"impact-factor config {path}: entry {key!r} must be a JSON object")
        try:
            entries[key] = ImpactVector(
                energy_kwh=parse_number(entry.get("energy_kwh", 0.0), "energy_kwh", required=True),
                gwp_kg=parse_number(entry.get("gwp_kg"), "gwp_kg", required=True),
                adpe_kgsb=parse_number(entry.get("adpe_kgsb"), "adpe_kgsb", required=True),
            )
        except ValueError as exc:
            raise LcaError(f"impact-factor config {path}, entry {key!r}: {exc}") from None
    return ImpactFactors(**entries)  # "version" and "source" keys document the file


def load_constants(path) -> LcaConstants:
    data = read_json(path, LcaError, "constants config")
    kwargs = {}
    try:
        for name in ("pue", "lifespan_hours", "avg_lifetime_utilization", "training_usage"):
            if name in data:
                entry = data[name]
                value = entry.get("value") if isinstance(entry, dict) else entry
                kwargs[name] = parse_number(value, name, required=True)
        return LcaConstants(**kwargs)
    except ValueError as exc:
        raise LcaError(f"bad constants config {path}: {exc}") from None


_MIX_COLUMNS = ("country", "carbon_intensity_g_per_kwh", "adpe_kgsb_per_kwh")


def load_mix_table(path) -> dict[str, ElectricityMix]:
    """CSV `country,carbon_intensity_g_per_kwh,adpe_kgsb_per_kwh`, keyed by
    upper-cased country code; the world average uses code WLD."""
    mixes: dict[str, ElectricityMix] = {}
    _, rows = read_csv(path, LcaError, "electricity mix table", _MIX_COLUMNS)
    for line, row in rows:
        code = row["country"].strip().upper()
        try:
            mixes[code] = ElectricityMix(
                code, *(parse_number(row[col], col, required=True) for col in _MIX_COLUMNS[1:])
            )
        except ValueError as exc:
            raise LcaError(f"mix table {path}, line {line}, country {code!r}: {exc}") from None
    return mixes


def load_server_profiles(path) -> ServerProfileTable:
    data = read_json(path, LcaError, "server-profile config")

    def profile(entry, where: str) -> ServerProfile:
        where = f"server-profile config {path}: {where}"
        if not isinstance(entry, dict):
            raise LcaError(f"{where} must be a JSON object")
        try:
            return ServerProfile(
                *(parse_count(entry.get(key), key, required=True)
                  for key in ("gpus_per_server", "cpus_per_server")),
                cpu_tdp_w=parse_number(entry.get("cpu_tdp_w"), "cpu_tdp_w", required=True),
            )
        except ValueError as exc:
            raise LcaError(f"{where}: {exc}") from None

    rules = data.get("rules", [])
    if not isinstance(rules, list) or not all(
        isinstance(rule, dict) and isinstance(rule.get("match"), str) for rule in rules
    ):
        raise LcaError(f"server-profile config {path}: each rule needs a \"match\" string")
    return ServerProfileTable(
        default=profile(data.get("default"), "default"),
        rules=tuple((rule["match"], profile(rule, f"rule {rule['match']!r}")) for rule in rules),
    )


def production_impact(card: CardSpec, factors: ImpactFactors) -> ImpactVector:
    """Linear production model: logic/cm^2 * die area + memory/GB * size + board."""
    if card.die_area_mm2 is None or card.memory_gb is None:
        raise CannotEstimateError(
            f"card {card.name!r} lacks die area or memory size; cannot estimate production impact"
        )
    area = card.die_area_mm2 / 100.0
    logic, memory, board = factors.logic_per_cm2, factors.memory_per_gb, factors.board_base
    return _finite_production(card, (
        getattr(logic, k) * area + getattr(memory, k) * card.memory_gb + getattr(board, k)
        for k in ImpactVector.COMPONENTS
    ))


def _finite_production(card: CardSpec, components) -> ImpactVector:
    """The production vector of these components, unless one overflowed."""
    components = tuple(components)
    if not all(map(math.isfinite, components)):
        raise CannotEstimateError(
            f"card {card.name!r}: production impact overflows; cannot estimate it"
        )
    return ImpactVector(*components)


def amortized_cards(quantity: int, training_hours: float, constants: LcaConstants) -> float:
    """quantity * min(1, training_hours / amortizable hours): the number of
    whole devices whose production one training run is attributed.

    training_hours is the per-card wall-clock duration, so attribution is
    capped at one whole device per card.
    """
    if training_hours <= 0:
        raise LcaError(f"training_hours must be > 0, got {training_hours}")
    if quantity < 1:
        raise LcaError(f"quantity must be >= 1, got {quantity}")
    return quantity * min(1.0, training_hours / constants.amortizable_hours)


def training_energy(
    gpu_hours: float,
    card: CardSpec,
    server: ServerProfile,
    constants: LcaConstants,
) -> float:
    """Electricity (kWh) for a run of gpu_hours on servers hosting this card.

    GPU and per-card CPU shares both run at training_usage of their TDP for
    the whole run; the PUE inflates for datacenter overhead.
    """
    if gpu_hours <= 0:
        raise LcaError(f"gpu_hours must be > 0, got {gpu_hours}")
    if card.tdp_w is None:
        raise CannotEstimateError(f"card {card.name!r} lacks a TDP; cannot estimate energy")
    gpu_wh = gpu_hours * card.tdp_w * constants.training_usage
    cpu_wh = gpu_hours * server.cpus_per_gpu * server.cpu_tdp_w * constants.training_usage
    return (gpu_wh + cpu_wh) * constants.pue / 1000.0


def usage_impact(energy_kwh: float, mix: ElectricityMix) -> tuple[float, float]:
    """(GWP kg, ADPe kgSb) of consuming energy_kwh from the mix."""
    if energy_kwh < 0:
        raise LcaError(f"energy must be >= 0, got {energy_kwh}")
    return energy_kwh * mix.carbon_intensity_g_per_kwh / 1000.0, energy_kwh * mix.adpe_kgsb_per_kwh


def apply_ci_scenario(
    carbon_intensity: float, ratio: float, release_year: int
) -> float:
    """Carbon intensity under a continuous annual reduction of `ratio`.

    Multiplies by (1-ratio)^n with n the whole years since 2019; releases
    before 2019 are unchanged. The ratio must lie in [0, 1]; ratios above
    0.25 are outside the explored range and only warned about.
    """
    if not 0 <= ratio <= 1:  # also false for nan
        raise LcaError(f"reduction ratio must be in [0, 1], got {ratio}")
    if ratio > 0.25:
        warnings.warn(
            f"reduction ratio {ratio} exceeds the explored range (0.25/year)",
            stacklevel=2,
        )
    n = max(0, int(release_year) - SCENARIO_BASE_YEAR)
    return carbon_intensity * (1.0 - ratio) ** n


def _card_constants(card: CardSpec, server_profiles: ServerProfileTable, factors: ImpactFactors):
    """(server profile, production-plus-CPU vector), or (server profile, the
    CannotEstimateError of a card whose production cannot be estimated)."""
    server = server_profiles.select(card)
    try:
        production = production_impact(card, factors)
        return server, _finite_production(card, (
            getattr(production, k) + getattr(factors.cpu_production, k) * server.cpus_per_gpu
            for k in ImpactVector.COMPONENTS
        ))
    except CannotEstimateError as exc:
        return server, exc


def system_impact(
    system,
    estimate,
    card_ref: CardReference,
    mixes: dict[str, ElectricityMix],
    server_profiles: ServerProfileTable,
    factors: ImpactFactors,
    constants: LcaConstants,
    card_constants: dict | None = None,
) -> SystemImpact:
    """Total impacts of one training run, with ambiguity intervals.

    The reference value combines the reference card with the first-listed
    country's mix; the interval is the component-wise envelope over the
    cross-product of candidate cards and implicated countries. Systems
    without a listed country fall back to the world-average pseudo-country.
    Candidate cards missing the fields needed for the model are skipped
    unless they are the reference.

    A total is the usage impact of training_energy plus the embodied part:
    the card's production and CPU vector scaled by amortized_cards or,
    quantity unknown, by device-hours over amortizable hours. The embodied
    energy is zero, since production energy is already embedded in the
    GWP/ADPe factors, not metered as kWh. card_constants memoizes each card's
    (server, vector) over calls sharing the tables.
    """
    countries = [c.strip().upper() for c in (system.countries or (WORLD_MIX_CODE,))]
    for code in countries:
        if code not in mixes:
            raise UnknownCountryError(code)
    hours_by_card = None if estimate.per_card is None else dict(estimate.per_card)
    quantity = system.hardware_quantity
    card_constants = {} if card_constants is None else card_constants

    totals: dict[tuple[str, str], tuple[float, float, float]] = {}
    embodied_by_card: dict[str, tuple[float, float]] = {}
    for card in card_ref.candidates:
        hours = estimate.value if hours_by_card is None else hours_by_card.get(card.name)
        if hours is None:
            continue  # no usable peak for this candidate; already skipped upstream
        if card not in card_constants:
            card_constants[card] = _card_constants(card, server_profiles, factors)
        server, per_card = card_constants[card]
        try:
            energy = training_energy(hours, card, server, constants)
            if isinstance(per_card, CannotEstimateError):
                raise CannotEstimateError(*per_card.args)  # the memo keeps no traceback
        except CannotEstimateError:
            if card is card_ref.reference:
                raise
            continue
        share = (hours / constants.amortizable_hours if quantity is None
                 else amortized_cards(quantity, hours / quantity, constants))
        _, gwp, adpe = _nonnegative(
            per_card.energy_kwh * share, per_card.gwp_kg * share, per_card.adpe_kgsb * share
        )
        embodied_by_card[card.name] = (gwp, adpe)
        for code in countries:
            usage_gwp, usage_adpe = usage_impact(energy, mixes[code])
            totals[(card.name, code)] = _nonnegative(energy, usage_gwp + gwp, usage_adpe + adpe)

    ref_key = (card_ref.reference.name, countries[0])
    if ref_key not in totals:
        raise LcaError(
            f"system {system.name!r}: reference combination {ref_key} could not be evaluated"
        )
    total_ref = ImpactVector(*totals[ref_key])
    energies, gwps, adpes = zip(*totals.values())
    return SystemImpact(
        system_name=system.name,
        publication_date=system.publication_date,
        energy_kwh=EstimateInterval(min(energies), total_ref.energy_kwh, max(energies)),
        gwp_kg=EstimateInterval(min(gwps), total_ref.gwp_kg, max(gwps)),
        adpe_kgsb=EstimateInterval(min(adpes), total_ref.adpe_kgsb, max(adpes)),
        embodied_ref=ImpactVector(0.0, *embodied_by_card[card_ref.reference.name]),
        total_ref=total_ref,
        method=estimate.method,
        mix_ref=mixes[countries[0]],
    )


def scenario_gwp(impact: SystemImpact, ratio: float) -> float:
    """Reference GWP (kg) of a system under a carbon-intensity reduction of
    `ratio`: only the usage phase of its reference card and first country is
    repriced, and the embodied impacts stay as they are."""
    intensity = apply_ci_scenario(
        impact.mix_ref.carbon_intensity_g_per_kwh, ratio, impact.publication_date.year
    )
    return impact.total_ref.energy_kwh * intensity / 1000.0 + impact.embodied_ref.gwp_kg


def embodied_share_table(impact_pairs) -> tuple[list[ShareSummary], int]:
    """Distribution of embodied shares (percent of total) for GWP and ADPe.

    impact_pairs is a list of (embodied, total) ImpactVector pairs with
    embodied <= total component-wise. Rows whose total is zero for a metric
    are excluded from that metric's summary and counted. Quartiles use
    linear interpolation.
    """
    pairs = list(impact_pairs)
    summaries = []
    total_excluded = 0
    for metric in ("gwp_kg", "adpe_kgsb"):
        shares = []
        excluded = 0
        for embodied, total in pairs:
            e, t = getattr(embodied, metric), getattr(total, metric)
            if e > t * (1 + 1e-12):
                raise LcaError(f"embodied {metric} exceeds total: {e} > {t}")
            if t == 0:
                excluded += 1
                continue
            shares.append(100.0 * e / t)
        if shares:
            arr = np.array(shares)
            q1, q2, q3 = np.percentile(arr, [25, 50, 75])
            summaries.append(
                ShareSummary(
                    metric=metric,
                    min=float(arr.min()),
                    q1=float(q1),
                    median=float(q2),
                    mean=float(arr.mean()),
                    q3=float(q3),
                    max=float(arr.max()),
                    n=len(shares),
                    excluded=excluded,
                )
            )
        else:
            nan = float("nan")
            summaries.append(
                ShareSummary(
                    metric=metric, min=nan, q1=nan, median=nan, mean=nan,
                    q3=nan, max=nan, n=0, excluded=excluded,
                )
            )
        total_excluded += excluded
    return summaries, total_excluded
