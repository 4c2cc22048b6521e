"""Life-cycle impacts of training runs: embodied and usage phases.

A system's totals are (energy kWh, GWP kgCO2eq, ADPe kgSbeq); production
impacts are (GWP, ADPe) pairs, since production energy is embedded in the
GWP/ADPe factors, not metered as kWh. Card production impacts follow a linear
model in die area and memory size with a fixed per-board term; the factor
table is configuration, not code. Usage impacts come from the electricity mix
of the producing country; embodied impacts are amortized over the share of
the hardware's useful life the training consumed.
Server memory is deliberately modeled with zero impact and zero energy so
results stay comparable with card-only accounting.

The model is stated once, in plain floats: `production_impact`,
`amortized_cards`, `training_energy` and `usage_impact` are its formulas, and
`system_impact` combines them in their order into one system's 11 floats
(`IMPACT_COLUMNS`). An `ImpactTable` holds a pass's impacts as columns: an
array of each of those floats, beside lists of the names, dates, methods and
reference mixes. `ImpactVector` is a validated record with no arithmetic.
What depends on the card alone, its server profile and production-plus-CPU
vector, is computed once per card for a whole `impact_stage` pass.

A carbon-intensity scenario multiplies a mix's intensity by (1-ratio)^n,
n being the whole years since 2019 at system release, with ratio in [0, 1].
`scenario_gwp` applies it to a system's reference usage phase only (the
reference card under the first-listed country's mix); embodied impacts stay
fixed.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from functools import cached_property

from .catalog import CardReference, CardSpec, contains_tokens, normalize_name
from .errors import CannotEstimateError, LcaError, UnknownCountryError
from .inputs import parse_count, parse_number, positions, read_csv, read_json
from .stats import quartiles

__all__ = [
    "WORLD_MIX_CODE",
    "SCENARIO_BASE_YEAR",
    "ImpactVector",
    "ImpactFactors",
    "ServerProfile",
    "ServerProfileTable",
    "ElectricityMix",
    "LcaConstants",
    "IMPACT_COLUMNS",
    "ImpactTable",
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


class ImpactVector(namedtuple("ImpactVector", ("gwp_kg", "adpe_kgsb"))):
    """(GWP kg, ADPe kgSb) pair of floats; components finite and never negative."""

    __slots__ = ()

    def __new__(cls, gwp_kg=0.0, adpe_kgsb=0.0):
        return tuple.__new__(cls, _nonnegative(gwp_kg, adpe_kgsb, names=cls._fields))


def _nonnegative(*components: float, names=("energy_kwh", *ImpactVector._fields)):
    """The components of a total (or of the named metrics), once each is
    finite and >= 0."""
    for name, value in zip(names, components):
        if not 0 <= value < math.inf:  # also false for nan
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return components


class ImpactFactors(namedtuple("ImpactFactors",
                               ("logic_per_cm2", "memory_per_gb", "board_base", "cpu_production"))):
    """Production impact factors, each an ImpactVector: per cm^2 of die, per
    GB of memory (fixed density), per board, and per CPU. Node-independent by
    design."""

    __slots__ = ()


class ServerProfile(namedtuple("ServerProfile",
                               ("gpus_per_server", "cpus_per_server", "cpu_tdp_w"))):
    """A server layout: GPUs and CPUs per server (int) and each CPU's TDP in W (float)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (1 <= self.gpus_per_server < math.inf and 1 <= self.cpus_per_server < math.inf):
            raise ValueError("server must hold a finite count of at least one GPU and one CPU")
        if not 0 < self.cpu_tdp_w < math.inf:
            raise ValueError(f"cpu_tdp_w must be finite and > 0, got {self.cpu_tdp_w}")
        return self

    @property
    def cpus_per_gpu(self) -> float:
        return self.cpus_per_server / self.gpus_per_server


class ServerProfileTable(namedtuple("ServerProfileTable", ("default", "rules"), defaults=((),))):
    """Name-pattern rules mapping cards to server layouts: the default
    ServerProfile and (pattern, ServerProfile) rules.

    Rules match when the pattern's tokens appear contiguously in the
    normalized card name; first matching rule wins, else the default
    (workstation-style) profile applies.
    """

    @cached_property  # no __slots__, so the instance dict holds it
    def _rule_tokens(self) -> tuple:  # rule patterns are normalized once, here
        return tuple((normalize_name(p).split(), profile) for p, profile in self.rules)

    def select(self, card: CardSpec) -> ServerProfile:
        name_tokens = card.normalized_name.split()
        return next(
            (p for tokens, p in self._rule_tokens if contains_tokens(name_tokens, tokens)),
            self.default,
        )


class ElectricityMix(namedtuple("ElectricityMix",
                                ("country", "carbon_intensity_g_per_kwh", "adpe_kgsb_per_kwh"))):
    """A country code (str) and its mix's carbon intensity (gCO2eq/kWh) and
    ADPe (kgSb/kWh), both finite and >= 0."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0 <= self.carbon_intensity_g_per_kwh < math.inf
                and 0 <= self.adpe_kgsb_per_kwh < math.inf):
            raise ValueError("mix intensities must be finite and >= 0")
        return self


class LcaConstants(namedtuple("LcaConstants", (
        "pue", "lifespan_hours", "avg_lifetime_utilization", "training_usage"),
        defaults=(1.1, 26280.0, 0.5, 1.0))):
    """Datacenter constants (floats): near-optimal PUE, 3-year lifespan, 50%
    average lifetime utilization, 100% processor usage during training."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 1 <= self.pue < math.inf:
            raise ValueError(f"pue must be finite and >= 1, got {self.pue}")
        if not 0 < self.lifespan_hours < math.inf:
            raise ValueError(f"lifespan_hours must be finite and > 0, got {self.lifespan_hours}")
        for name in ("avg_lifetime_utilization", "training_usage"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if not self.amortizable_hours > 0:  # say, a subnormal lifespan_hours
            raise ValueError("lifespan_hours * avg_lifetime_utilization rounds to 0")
        return self

    @property
    def amortizable_hours(self) -> float:
        return self.lifespan_hours * self.avg_lifetime_utilization


# The floats of one system's impacts, in impacts.csv order: the min, reference
# and max total of each metric, then the reference's embodied GWP and ADPe.
IMPACT_COLUMNS = (*(f"{metric}_{end}" for metric in ("energy_kwh", *ImpactVector._fields)
                    for end in ("min", "ref", "max")), "embodied_gwp_ref", "embodied_adpe_ref")


class ImpactTable(namedtuple("ImpactTable", ("system", "date", *IMPACT_COLUMNS, "method",
                                             "mix_ref"))):
    """The impacts of a pass as columns, one entry per system: its name, its
    date, an array('d') per IMPACT_COLUMNS entry, the estimate's method and
    the reference mix (the first-listed country's ElectricityMix), which a
    carbon-intensity scenario reprices."""

    __slots__ = ()


class ShareSummary(namedtuple("ShareSummary", (
        "metric", "min", "q1", "median", "mean", "q3", "max", "n", "excluded"))):
    """Five-number summary plus mean of embodied shares (percent) for one
    metric, with the count of shares (n) and of rows excluded."""

    __slots__ = ()


def load_impact_factors(path) -> ImpactFactors:
    data = read_json(path, LcaError, "impact-factor config")
    entries = {}
    for key in ImpactFactors._fields:
        entry = data.get(key)
        if not isinstance(entry, dict):
            raise LcaError(f"impact-factor config {path}: entry {key!r} must be a JSON object")
        try:
            entries[key] = ImpactVector(
                *(parse_number(entry.get(k), k, required=True) for k in ImpactVector._fields)
            )
        except ValueError as exc:
            raise LcaError(f"impact-factor config {path}, entry {key!r}: {exc}") from None
    return ImpactFactors(**entries)  # other keys ("version", "source", ...) are ignored


def load_constants(path) -> LcaConstants:
    data = read_json(path, LcaError, "constants config")
    kwargs = {}
    try:
        for name in LcaConstants._fields:
            if name in data:
                entry = data[name]
                value = entry.get("value") if isinstance(entry, dict) else entry
                kwargs[name] = parse_number(value, name, required=True)
        return LcaConstants(**kwargs)
    except ValueError as exc:
        raise LcaError(f"bad constants config {path}: {exc}") from None


def load_mix_table(path) -> dict[str, ElectricityMix]:
    """CSV `country,carbon_intensity_g_per_kwh,adpe_kgsb_per_kwh`, keyed by
    upper-cased country code; the world average uses code WLD."""
    mixes: dict[str, ElectricityMix] = {}
    columns = ElectricityMix._fields
    header, rows = read_csv(path, LcaError, "electricity mix table", columns)
    at = positions(header)
    for line, row in rows:
        code = row[at["country"]].strip().upper()
        try:
            mixes[code] = ElectricityMix(
                code, *(parse_number(row[at[col]], col, required=True) for col in columns[1:])
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
        for k in ImpactVector._fields
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
            for k in ImpactVector._fields
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
) -> tuple[tuple, ElectricityMix]:
    """Total impacts of one training run, with ambiguity intervals: its
    IMPACT_COLUMNS floats and its reference mix.

    The reference value combines the reference card with the first-listed
    country's mix; the interval is the component-wise envelope over the
    cross-product of candidate cards and implicated countries. Systems
    without a listed country fall back to the world-average pseudo-country.
    Candidate cards missing the fields needed for the model are skipped
    unless they are the reference.

    A total is the usage impact of training_energy plus the embodied part:
    the card's production and CPU vector scaled by amortized_cards or,
    quantity unknown, by device-hours over amortizable hours. card_constants
    memoizes each card's (server, vector) over calls sharing the tables,
    keyed by id(card): the cards must outlive it.
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
        key = id(card)  # hashing a CardSpec would hash its 13 fields
        if key not in card_constants:
            card_constants[key] = _card_constants(card, server_profiles, factors)
        server, per_card = card_constants[key]
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
        gwp, adpe = per_card.gwp_kg * share, per_card.adpe_kgsb * share  # checked in the totals
        embodied_by_card[card.name] = (gwp, adpe)
        for code in countries:
            usage_gwp, usage_adpe = usage_impact(energy, mixes[code])
            totals[(card.name, code)] = _nonnegative(energy, usage_gwp + gwp, usage_adpe + adpe)

    ref_key = (card_ref.reference.name, countries[0])
    if ref_key not in totals:
        raise LcaError(
            f"system {system.name!r}: reference combination {ref_key} could not be evaluated"
        )
    ref_energy, ref_gwp, ref_adpe = totals[ref_key]
    energies, gwps, adpes = zip(*totals.values())
    # Every total is checked finite and >= 0 and the reference is one of them,
    # so min <= ref <= max; the embodied part lies within the reference total,
    # so it is finite and >= 0 too.
    return ((min(energies), ref_energy, max(energies), min(gwps), ref_gwp, max(gwps),
             min(adpes), ref_adpe, max(adpes), *embodied_by_card[card_ref.reference.name]),
            mixes[countries[0]])


def scenario_gwp(energy_kwh: float, embodied_gwp_kg: float, mix: ElectricityMix, year: int,
                 ratio: float) -> float:
    """Reference GWP (kg) of a system released in `year` under a
    carbon-intensity reduction of `ratio`: only the usage phase of its
    reference energy under its reference mix is repriced, and the embodied
    GWP stays as it is."""
    intensity = apply_ci_scenario(mix.carbon_intensity_g_per_kwh, ratio, year)
    return energy_kwh * intensity / 1000.0 + embodied_gwp_kg


def embodied_share_table(embodied, totals) -> tuple[list[ShareSummary], int]:
    """Distribution of embodied shares (percent of total) for GWP and ADPe.

    embodied and totals are (GWP, ADPe) pairs of columns of equal length,
    with embodied <= total row by row. Rows whose total is zero for a metric
    are excluded from that metric's summary and counted. Quartiles use
    linear interpolation, as np.percentile does.
    """
    summaries = []
    for metric, embodied_column, total_column in zip(ImpactVector._fields, embodied, totals):
        for e, t in zip(embodied_column, total_column):
            if e > t * (1 + 1e-12):
                raise LcaError(f"embodied {metric} exceeds total: {e} > {t}")
        shares = [100.0 * e / t for e, t in zip(embodied_column, total_column) if t != 0]
        if shares:
            q1, median, q3 = quartiles(shares)
            values = (min(shares), q1, median, math.fsum(shares) / len(shares), q3, max(shares))
        else:
            values = (math.nan,) * 6
        summaries.append(ShareSummary(metric, *values, n=len(shares),
                                      excluded=len(total_column) - len(shares)))
    return summaries, sum(summary.excluded for summary in summaries)
