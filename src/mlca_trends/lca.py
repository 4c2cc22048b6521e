"""Life-cycle impacts of training runs: embodied and usage phases.

Impacts are (energy kWh, GWP kgCO2eq, ADPe kgSbeq) triples. Card production
impacts follow a linear model in die area and memory size with a fixed
per-board term; the factor table is configuration, not code, and carries a
provenance label per entry. Usage impacts come from the electricity mix of
the producing country; embodied impacts are amortized over the share of the
hardware's useful life the training consumed. Server memory is deliberately
modeled with zero impact and zero energy so results stay comparable with
card-only accounting; an extended memory model can be added behind a factor
entry later.

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
    "amortized_embodied",
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
    """Additive (energy, GWP, ADPe) triple; components never negative."""

    energy_kwh: float = 0.0
    gwp_kg: float = 0.0
    adpe_kgsb: float = 0.0

    COMPONENTS = ("energy_kwh", "gwp_kg", "adpe_kgsb")

    def __post_init__(self):
        for component in self.COMPONENTS:
            if not 0 <= getattr(self, component) < math.inf:  # also false for nan
                raise ValueError(
                    f"{component} must be finite and >= 0, got {getattr(self, component)}"
                )

    def __add__(self, other: "ImpactVector") -> "ImpactVector":
        return ImpactVector(
            self.energy_kwh + other.energy_kwh,
            self.gwp_kg + other.gwp_kg,
            self.adpe_kgsb + other.adpe_kgsb,
        )

    def scale(self, factor: float) -> "ImpactVector":
        if factor < 0:
            raise ValueError(f"impact scaling factor must be >= 0, got {factor}")
        return ImpactVector(
            self.energy_kwh * factor, self.gwp_kg * factor, self.adpe_kgsb * factor
        )

    def replace_energy(self, energy_kwh: float) -> "ImpactVector":
        return ImpactVector(energy_kwh, self.gwp_kg, self.adpe_kgsb)

    @classmethod
    def zero(cls) -> "ImpactVector":
        return cls(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ImpactFactors:
    """Production impact factors: per cm^2 of die, per GB of memory (fixed
    density), per board, and per CPU. Node-independent by design; a
    node-dependent table is an extension hook, not the default."""

    logic_per_cm2: ImpactVector
    memory_per_gb: ImpactVector
    board_base: ImpactVector
    cpu_production: ImpactVector
    version: str = "unversioned"
    sources: dict[str, str] | None = None


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
        for tokens, profile in self._rule_tokens:
            if contains_tokens(name_tokens, tokens):
                return profile
        return self.default


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
    return ImpactFactors(
        **entries,
        version=str(data.get("version", "unversioned")),
        sources={key: str(data[key].get("source", "unspecified")) for key in _FACTOR_ENTRIES},
    )


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
    return (
        factors.logic_per_cm2.scale(card.die_area_mm2 / 100.0)
        + factors.memory_per_gb.scale(card.memory_gb)
        + factors.board_base
    )


def amortized_embodied(
    card_impact: ImpactVector,
    quantity: int,
    training_hours: float,
    constants: LcaConstants,
) -> ImpactVector:
    """Share of production impacts attributable to one training run.

    training_hours is the per-card wall-clock duration. Attribution is
    capped at one whole device per card. The energy component is forced to
    zero: production energy is already embedded in the GWP/ADPe factors,
    not metered as kWh.
    """
    if training_hours <= 0:
        raise LcaError(f"training_hours must be > 0, got {training_hours}")
    if quantity < 1:
        raise LcaError(f"quantity must be >= 1, got {quantity}")
    share = min(1.0, training_hours / constants.amortizable_hours)
    return card_impact.scale(quantity * share).replace_energy(0.0)


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


def usage_impact(energy_kwh: float, mix: ElectricityMix) -> ImpactVector:
    """Impacts of consuming energy_kwh from the given electricity mix."""
    if energy_kwh < 0:
        raise LcaError(f"energy must be >= 0, got {energy_kwh}")
    return ImpactVector(
        energy_kwh=energy_kwh,
        gwp_kg=energy_kwh * mix.carbon_intensity_g_per_kwh / 1000.0,
        adpe_kgsb=energy_kwh * mix.adpe_kgsb_per_kwh,
    )


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


def _embodied_for(
    card: CardSpec,
    hours: float,
    quantity: int | None,
    server: ServerProfile,
    factors: ImpactFactors,
    constants: LcaConstants,
) -> ImpactVector:
    per_card = production_impact(card, factors) + factors.cpu_production.scale(
        server.cpus_per_gpu
    )
    if quantity is not None:
        return amortized_embodied(per_card, quantity, hours / quantity, constants)
    # Quantity unknown: total device-hours over amortizable hours. Equals the
    # capped formula whenever each card's duration stays below its
    # amortizable life, which holds for training runs shorter than it.
    return per_card.scale(hours / constants.amortizable_hours).replace_energy(0.0)


def system_impact(
    system,
    estimate,
    card_ref: CardReference,
    mixes: dict[str, ElectricityMix],
    server_profiles: ServerProfileTable,
    factors: ImpactFactors,
    constants: LcaConstants,
) -> SystemImpact:
    """Total impacts of one training run, with ambiguity intervals.

    The reference value combines the reference card with the first-listed
    country's mix; the interval is the component-wise envelope over the
    cross-product of candidate cards and implicated countries. Systems
    without a listed country fall back to the world-average pseudo-country.
    Candidate cards missing the fields needed for the model are skipped
    unless they are the reference.
    """
    countries = [c.strip().upper() for c in (system.countries or (WORLD_MIX_CODE,))]
    for code in countries:
        if code not in mixes:
            raise UnknownCountryError(code)

    hours_by_card: dict[str, float] = (
        dict(estimate.per_card)
        if estimate.per_card is not None
        else {card.name: estimate.value for card in card_ref.candidates}
    )

    totals: dict[tuple[str, str], ImpactVector] = {}
    embodied_by_card: dict[str, ImpactVector] = {}
    for card in card_ref.candidates:
        if card.name not in hours_by_card:
            continue  # no usable peak for this candidate; already skipped upstream
        hours = hours_by_card[card.name]
        server = server_profiles.select(card)
        try:
            energy = training_energy(hours, card, server, constants)
            embodied = _embodied_for(
                card, hours, system.hardware_quantity, server, factors, constants
            )
        except CannotEstimateError:
            if card is card_ref.reference:
                raise
            continue
        embodied_by_card[card.name] = embodied
        for code in countries:
            totals[(card.name, code)] = usage_impact(energy, mixes[code]) + embodied

    ref_key = (card_ref.reference.name, countries[0])
    if ref_key not in totals:
        raise LcaError(
            f"system {system.name!r}: reference combination {ref_key} could not be evaluated"
        )
    total_ref = totals[ref_key]

    def envelope(component: str) -> EstimateInterval:
        values = [getattr(v, component) for v in totals.values()]
        return EstimateInterval(
            min(values), getattr(total_ref, component), max(values)
        )

    return SystemImpact(
        system_name=system.name,
        publication_date=system.publication_date,
        energy_kwh=envelope("energy_kwh"),
        gwp_kg=envelope("gwp_kg"),
        adpe_kgsb=envelope("adpe_kgsb"),
        embodied_ref=embodied_by_card[card_ref.reference.name],
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
