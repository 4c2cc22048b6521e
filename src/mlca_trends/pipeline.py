"""End-to-end pipeline: ingest -> merge -> eligibility -> bridge -> estimates
-> impacts -> trends -> tables.

Every stage is a plain function over the tables it reads. A `Run` reads
each input and computes each stage at most once, when an output first needs
it. `OUTPUTS` declares each output file once: the subcommand that writes it,
whether the report writes it too, its CSV header and its rows or JSON
payload. `run_pipeline` writes one subcommand's files through a `Run`, so a
stage subcommand reads only the inputs and computes only the stages behind
its own files. The impact stage fills one `ImpactTable` of columns.
`_TRENDS` declares each trends.csv series once, so a new series is one
entry; `trend_stage` sorts each table once, into a permutation, and fits its
series over one shared x, its dates converted and centred once. The trend
and scenario stages return `Series` records (point dates and values as
columns, and their fit), and one point-row and one trend-row builder write
both series files. Outputs are deterministic: identical inputs and config
produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import sys
import tempfile
from array import array
from collections import namedtuple
from functools import cache, cached_property
from itertools import chain, compress
from operator import attrgetter
from pathlib import Path

from . import __version__
from .catalog import (
    _CHARACTERISTICS,
    CARD_COLUMNS,
    CardIndex,
    CardReference,
    MergeReport,
    card_rows,
    load_overrides,
    load_plausibility,
    merge_catalogs,
    parse_card_table,
    resolve_card_reference,
)
from .errors import (
    CannotEstimateError,
    ConfigError,
    DegenerateDataError,
    EstimationError,
    PipelineError,
    StatsError,
    UnknownCountryError,
    UnresolvedCardError,
)
from .estimation import (
    MAD_LIMIT,
    BridgeModel,
    detect_anomalies,
    estimate_gpu_hours,
    fit_bridge,
    flop_hours,
    gpu_hours_direct,
)
from .inputs import csv_line, float_cells, format_cell, quote_cell
from .inputs import write_csv as _write_csv  # the name clibench's tracer wraps
from .lca import (
    IMPACT_COLUMNS,
    ImpactFactors,
    ImpactTable,
    ImpactVector,
    ShareSummary,
    embodied_share_table,
    load_constants,
    load_impact_factors,
    load_mix_table,
    load_server_profiles,
    production_impact,
    scenario_gwp,
    system_impact,
)
from .stats import SharedX, diagnostics, exp_trend, to_fractional_year
from .systems import (
    COVERAGE_METRICS,
    SYSTEM_COLUMNS,
    coverage_summary,
    eligible_systems,
    load_column_map,
    parse_systems_table,
    system_rows,
)

__all__ = [
    "OUTPUTS",
    "Run",
    "RunConfig",
    "Series",
    "default_data_path",
    "run_pipeline",
]

# Trend weighting follows the figure methodology: per-system quantities and
# footprints are fitted with feasible WLS (heteroscedastic), card
# characteristics and production impacts with plain OLS.
_SYSTEM_TREND_WEIGHTING = "feasible_wls"
_CARD_TREND_WEIGHTING = "ols"


def default_data_path(name: str) -> Path:
    """The data file of that name bundled with the package."""
    return Path(__file__).parent / "data" / name


# RunConfig's fields: name -> (its type, its default). cli parses each field's
# flag and MLCA_TRENDS_CONFIG value by its type, "| None" where None may be given.
_RUN_FIELDS = {
    "out": ("Path", Path("out")),
    "cards": ("Path", default_data_path("cards_nvidia_workstation.csv")),
    "cards_alt": ("Path | None", None),
    "cards_extra": ("Path | None", default_data_path("cards_other.csv")),
    "overrides": ("Path | None", None),
    "systems": ("Path", default_data_path("systems_sample.csv")),
    "mixes": ("Path", default_data_path("electricity_mixes.csv")),
    "factors": ("Path", default_data_path("impact_factors.json")),
    "constants": ("Path", default_data_path("lca_constants.json")),
    "plausibility": ("Path", default_data_path("plausibility.json")),
    "server_profiles": ("Path", default_data_path("server_profiles.json")),
    "column_map": ("Path | None", None),
    "apply_bridge": ("bool", True),
    "scenario_ratio": ("float | None", None),
    "gwp_floor": ("float", 50.0),
}


class RunConfig(namedtuple("RunConfig", _RUN_FIELDS,
                           defaults=[default for _, default in _RUN_FIELDS.values()])):
    """Paths and flags for one pipeline run. Each input defaults to the data
    file bundled with the package, but for the three optional ones (cards_alt,
    overrides, column_map); None, their default, means no file, as it does
    for cards_extra. FIELD_TYPES maps each field to its type."""

    __slots__ = ()
    FIELD_TYPES = {name: kind for name, (kind, _) in _RUN_FIELDS.items()}

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.out == "":  # Path("") would be the working directory
            raise ConfigError('out must not be empty; give "." for the working directory')
        if not 0 <= self.gwp_floor <= sys.float_info.max:  # nan, inf and huge ints fail
            raise PipelineError(f"gwp floor must be a finite number >= 0, got {self.gwp_floor}")
        if self.scenario_ratio is not None and not 0 <= self.scenario_ratio <= 1:
            raise PipelineError(f"scenario ratio must be in [0, 1], got {self.scenario_ratio}")
        return self

    def sha256(self) -> str:
        import hashlib
        # default=str writes each Path as its string
        payload = json.dumps(self._asdict(), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Series(namedtuple("Series", ("name", "dates", "values", "fit", "labels", "included"),
                        defaults=(None, None))):
    """Named points in output order, their dates and values as two columns,
    and their exponential trend fit (a TrendFit), None when it cannot be
    fitted. A series filtered before its fit (the scenario pair) also holds
    each point's label and whether the filter kept it, in two lists."""

    __slots__ = ()

    @property
    def n_excluded(self) -> int | None:
        """Points left out of the fit: the non-positive values of an unfiltered
        series (None without a fit), or the points a filtered series dropped."""
        if self.included is None:
            return getattr(self.fit, "n_excluded", None)
        return self.included.count(False)


def _series(name, dates, values, weighting, x=None, labels=None, included=None) -> Series:
    """The series with its fit over the included points, if exp_trend can fit
    them: over x, the SharedX of all the dates, when it is given."""
    points = zip(dates, values) if included is None else compress(zip(dates, values), included)
    try:
        fit = exp_trend(points, weighting) if x is None else exp_trend(values, weighting, x)
    except StatsError:
        fit = None  # too few positive points or degenerate; points still emitted
    return Series(name, dates, values, fit, labels, included)


def _optional_cards(path, source):
    """(cards, row errors) of an optional card table; none without a file."""
    return ([], []) if path is None else parse_card_table(path, source)


def fit_bridge_stage(eligible, card_refs) -> tuple[BridgeModel | None, dict]:
    """Pairs up both estimators where available, drops anomalies, fits.

    Returns (model, counts); the model is None when fewer than 3 clean pairs
    exist or their FLOP-based hours do not vary."""
    pairs = []
    for system in eligible:
        if not (system.has_direct_inputs and system.has_flop_inputs):
            continue
        card_ref = card_refs[system.hardware_names[0]]
        if card_ref is None:
            continue
        try:
            h1 = gpu_hours_direct(system.training_hours, system.hardware_quantity).value
            h2 = flop_hours(system.training_flop, card_ref.reference)
        except EstimationError:  # no usable peak, or hours outside the float range
            continue
        pairs.append((system, h1, h2))
    clean, anomalous = detect_anomalies(pairs)
    counts = {"pairs": len(pairs), "clean": len(clean), "anomalous": len(anomalous)}
    if len(clean) < 3:
        return None, counts
    try:
        return fit_bridge([(h1, h2) for _, h1, h2 in clean]), counts
    except DegenerateDataError:
        return None, counts


def estimate_stage(eligible, card_refs, bridge, apply_bridge: bool):
    """GPU-hour estimates for every eligible system that the catalog can
    serve. Returns (rows, skipped) where rows are (system, card_ref, estimate)."""
    rows = []
    skipped = []
    for system in eligible:
        hardware = system.hardware_names[0] if system.hardware_names else None
        card_ref = card_refs.get(hardware)
        if hardware is not None and card_ref is None and not system.has_direct_inputs:
            # a direct estimate stays possible without a card; nothing else does
            skipped.append((system.name, f"unresolved hardware: {hardware}"))
            continue
        try:
            estimate = estimate_gpu_hours(
                system, card_ref, bridge, apply_bridge=apply_bridge and bridge is not None
            )
        except EstimationError as exc:
            skipped.append((system.name, str(exc)))
            continue
        rows.append((system, card_ref, estimate))
    return rows, skipped


def impact_stage(estimate_rows, mixes, server_profiles, factors, constants):
    """(ImpactTable, skipped): the impacts of every estimated system whose
    hardware resolved, under the tables system_impact reads; each card's
    constants are computed once for the whole pass."""
    names, dates, methods, mixes_ref = [], [], [], []
    values = array("d")  # the IMPACT_COLUMNS floats of each impact in turn
    skipped = []
    card_constants = {}
    for system, card_ref, estimate in estimate_rows:
        if card_ref is None:
            skipped.append(
                (system.name, "no resolvable hardware; impacts need a specific card")
            )
            continue
        try:
            impact, mix = system_impact(system, estimate, card_ref, mixes, server_profiles,
                                        factors, constants, card_constants)
        except (CannotEstimateError, UnknownCountryError, ValueError) as exc:
            # ValueError: a footprint overflowed to inf, which impacts reject
            skipped.append((system.name, str(exc)))
            continue
        values.extend(impact)
        names.append(system.name)
        dates.append(system.publication_date)
        methods.append(estimate.method)
        mixes_ref.append(mix)
    width = len(IMPACT_COLUMNS)
    columns = (values[i::width] for i in range(width))
    return ImpactTable(names, dates, *columns, methods, mixes_ref), skipped


# Each trends.csv series in output order: (name, weighting, the table of
# trend_stage it reads, record -> its value, None for no point; or, for the
# impact table, table -> its column). A new series is one entry.
_TRENDS = (
    *((f"card_{name}", _CARD_TREND_WEIGHTING, "cards", attrgetter(field))
      for name, field in _CHARACTERISTICS.items()),
    *((f"card_production_{metric}", _CARD_TREND_WEIGHTING, "production", attrgetter(metric))
      for metric in ImpactVector._fields),
    *((f"system_{metric}", _SYSTEM_TREND_WEIGHTING, "impacts", attrgetter(f"{metric}_ref"))
      for metric in ("energy_kwh", *ImpactVector._fields)),
    ("hardware_quantity", _SYSTEM_TREND_WEIGHTING, "systems",
     lambda system: float(system.hardware_quantity)),
)


def _dated(table, dates, ties):
    """(table, permutation, dates, SharedX): the table's rows in (date, tie)
    order as a permutation, with the dates in that order and their x. Two
    stable sorts, by tie and then by date, compare faster than tuples."""
    order = sorted(range(len(dates)), key=ties.__getitem__)
    order.sort(key=dates.__getitem__)
    dates = list(map(dates.__getitem__, order))
    return table, order, dates, SharedX("d", map(to_fractional_year, dates))


def trend_stage(cards, factors, systems, impacts: ImpactTable) -> list[Series]:
    """Every _TRENDS series with its fit, over four date-ordered tables: the
    workstation cards, their production impacts (cards without one left out),
    the impacts, and the systems with a hardware quantity. Same-date cards
    are in normalized-name order, their production impacts in name order.
    A series without a point on every row of its table gets its own x."""
    produced, production = [], []
    for card in cards:
        with contextlib.suppress(CannotEstimateError):
            production.append(production_impact(card, factors))
            produced.append(card)
    systems = [s for s in systems if s.hardware_quantity is not None]
    tables = {
        "cards": _dated(cards, [c.release_date for c in cards],
                        [c.normalized_name for c in cards]),
        "production": _dated(production, [c.release_date for c in produced],
                             [c.name for c in produced]),
        "impacts": _dated(impacts, impacts.date, impacts.system),
        "systems": _dated(systems, [s.publication_date for s in systems],
                          [s.name for s in systems]),
    }
    series = []
    for name, weighting, table, value in _TRENDS:
        records, order, dates, x = tables[table]
        if isinstance(records, ImpactTable):
            values = array("d", map(value(records).__getitem__, order))
        else:
            values = [value(records[i]) for i in order]
            if None in values:
                kept = [v is not None for v in values]
                dates, values, x = list(compress(dates, kept)), list(compress(values, kept)), None
        series.append(_series(name, dates, values, weighting, x))
    return series


def _scenario_from_rows(impacts: ImpactTable, ratio, gwp_floor) -> list[Series]:
    """The [real, scenario] footprints of post-2019 systems, in impact order.

    The real series is the run's impacts; the scenario series reprices each
    one's reference usage phase. Each series fits only the systems whose
    footprint reaches the floor, and counts the others in n_excluded.
    """
    post = [i for i, date in enumerate(impacts.date) if date.year >= 2019]
    if not post:
        raise PipelineError("no post-2019 systems; scenario comparison is empty")
    labels, dates, real = ([column[i] for i in post]
                           for column in (impacts.system, impacts.date, impacts.gwp_kg_ref))
    reduced = [scenario_gwp(impacts.energy_kwh_ref[i], impacts.embodied_gwp_ref[i],
                            impacts.mix_ref[i], impacts.date[i].year, ratio) for i in post]
    return [
        _series(name, dates, values, _SYSTEM_TREND_WEIGHTING, None, labels,
                [v >= gwp_floor for v in values])
        for name, values in (("real", real), ("scenario", reduced))
    ]


class Run:
    """One pipeline run over a config. Each stage is a cached property:
    computed on first use, at most once, so writing an output computes only
    the stages that output reads. So is each input group that more than one
    stage reads (cards, systems, factors); an input that one stage alone
    reads is loaded in that stage's property, so a run reads only the inputs
    of its outputs."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.output_files: list[str] = []

    @cached_property
    def cards(self):
        """(workstation cards, full catalog (those and the extra cards),
        MergeReport, card RowErrors)."""
        config = self.config
        cards_a, errors_a = parse_card_table(config.cards, "techpowerup")
        cards_b, errors_b = _optional_cards(config.cards_alt, "wiki")
        overrides = load_overrides(config.overrides) if config.overrides else None
        workstation, report = merge_catalogs(cards_a, cards_b, overrides)
        extra, errors_extra = _optional_cards(config.cards_extra, "other")
        return workstation, [*workstation, *extra], report, errors_a + errors_b + errors_extra

    @cached_property
    def systems(self):
        """(SystemRecords, system RowErrors), read through the column map if one is given."""
        column_map = self.config.column_map
        return parse_systems_table(self.config.systems,
                                   load_column_map(column_map) if column_map else None)

    @cached_property
    def factors(self) -> ImpactFactors:
        return load_impact_factors(self.config.factors)

    @cached_property
    def coverage(self):
        return coverage_summary(self.systems[0])

    @cached_property
    def eligibility(self):
        """(eligible systems, [(excluded system, reason)])."""
        return eligible_systems(self.systems[0])

    @cached_property
    def card_refs(self) -> dict[str, CardReference | None]:
        """One resolution per distinct hardware string of the eligible
        systems (each names one at most); None where no card matches."""
        index = CardIndex(self.cards[1])
        plausibility = load_plausibility(self.config.plausibility)
        refs = {}
        for system in self.eligibility[0]:
            if system.hardware_names and system.hardware_names[0] not in refs:
                name = system.hardware_names[0]
                try:
                    refs[name] = resolve_card_reference(name, index, plausibility)
                except UnresolvedCardError:
                    refs[name] = None
        return refs

    @cached_property
    def bridge(self) -> tuple[BridgeModel | None, dict]:
        return fit_bridge_stage(self.eligibility[0], self.card_refs)

    @cached_property
    def estimates(self):
        """(rows of (system, card_ref, estimate), skipped)."""
        return estimate_stage(
            self.eligibility[0], self.card_refs, self.bridge[0], self.config.apply_bridge
        )

    @cached_property
    def impacts(self):
        """(impacts under the real electricity mixes, skipped)."""
        config = self.config
        return impact_stage(self.estimates[0], load_mix_table(config.mixes),
                            load_server_profiles(config.server_profiles), self.factors,
                            load_constants(config.constants))

    @cached_property
    def trends(self):
        return trend_stage(self.cards[0], self.factors, self.systems[0], self.impacts[0])

    @cached_property
    def shares(self):
        impacts = self.impacts[0]
        return embodied_share_table((impacts.embodied_gwp_ref, impacts.embodied_adpe_ref),
                                    (impacts.gwp_kg_ref, impacts.adpe_kgsb_ref))

    @cached_property
    def scenario(self) -> list[Series]:
        return _scenario_from_rows(
            self.impacts[0], self.config.scenario_ratio, self.config.gwp_floor
        )

    @property
    def counts(self) -> dict[str, int]:
        """Counts of the stages this run computed."""
        ran = vars(self)
        counts = {}
        if "cards" in ran:
            workstation, catalog, report, errors = self.cards
            counts.update(cards_workstation=len(workstation), cards_total=len(catalog),
                          cards_validated=report.validated, card_row_errors=len(errors))
        if "systems" in ran:
            counts.update(systems_total=len(self.systems[0]),
                          system_row_errors=len(self.systems[1]))
        if "eligibility" in ran:
            reasons = [reason for _, reason in self.eligibility[1]]
            counts.update(
                systems_eligible=len(self.eligibility[0]),
                excluded_multi_hardware=reasons.count("multi-hardware"),
                excluded_insufficient_data=reasons.count("insufficient-data"),
            )
        if "bridge" in ran:  # pairs, clean, anomalous
            counts.update({f"bridge_{k}": v for k, v in self.bridge[1].items()})
        if "estimates" in ran:
            counts.update(estimates=len(self.estimates[0]), estimate_skips=len(self.estimates[1]))
        if "impacts" in ran:
            counts.update(impacts=len(self.impacts[0].system), impact_skips=len(self.impacts[1]))
        if "shares" in ran:
            counts.update(share_rows_excluded=self.shares[1])
        return counts

    @property
    def provenance(self) -> dict:
        ran = vars(self)
        config = self.config
        return {
            "package_version": __version__,
            "config_sha256": config.sha256(),
            "apply_bridge": config.apply_bridge,
            "bridge_applied": (config.apply_bridge and self.bridge[0] is not None)
            if "bridge" in ran
            else None,
            "bridge_log_base": "natural",
            "system_trend_weighting": _SYSTEM_TREND_WEIGHTING,
            "card_trend_weighting": _CARD_TREND_WEIGHTING,
            "scenario_ratio": config.scenario_ratio if "scenario" in ran else None,
            "gwp_floor": config.gwp_floor,
            "cpu_embodied_allocation": "cpus_per_server/gpus_per_server per card",
        }

    def as_dict(self) -> dict:
        return {
            "counts": self.counts,
            "output_files": self.output_files,
            "provenance": self.provenance,
        }


def _merge_report_payload(report: MergeReport) -> dict:
    return {
        "total_cards": report.total_cards,
        "validated": report.validated,
        "divergent": [
            {**d._asdict(), "value_a": str(d.value_a), "value_b": str(d.value_b)}
            for d in report.divergent
        ],
    }


def _bridge_payload(bridge: BridgeModel | None, counts: dict) -> dict:
    fit = None if bridge is None else bridge.fit
    return {
        "model": None if fit is None else {
            "intercept": fit.intercept, "slope": fit.slope,
            "intercept_se": fit.standard_errors[0], "slope_se": fit.standard_errors[1],
            "adj_r2": fit.adj_r2, "f_statistic": fit.f_statistic, "f_df": fit.f_df,
            "f_pvalue": fit.f_pvalue, "n_observations": fit.n,
            "performance_ratio": bridge.performance_ratio, "log_base": "natural",
        },
        "diagnostics": None if fit is None else diagnostics(bridge.log_flop_hours, fit.residuals),
        "counts": counts,
        "anomaly_rule": f"finetuned OR |log-ratio - median| > {MAD_LIMIT:g}*MAD",
    }


@cache
def _date_cells(date) -> str:
    """A point row's date and fractional-year cells, joined once per date."""
    return f"{date.isoformat()},{format_cell(round(to_fractional_year(date), 6))}"


# The TrendFit fields of a trend row, after which comes its excluded count
_FIT_COLUMNS = ("slope_per_year", "intercept", "growth_factor", "cagr_pct",
                "doubling_time_years", "weighting", "n_used")
_BLANK_FIT = "," * (len(_FIT_COLUMNS) + 1)  # a point row's blank fit and excluded cells


def _point_rows(series: Series):
    """A line per point; a filtered series adds its labels and included flags."""
    name = quote_cell(series.name)
    if series.included is None:
        return (f"{name},point,,{_date_cells(d)},{format_cell(v)}{_BLANK_FIT}"
                for d, v in zip(series.dates, series.values))
    return (f"{name},point,{quote_cell(label)},{_date_cells(d)},{format_cell(v)},"
            f"{'true' if kept else 'false'}{_BLANK_FIT}"
            for label, d, v, kept in zip(series.labels, series.dates, series.values,
                                         series.included))


def _trend_row(series: Series) -> str:
    """The trend line of a series: blank fit cells when it has no fit."""
    included = () if series.included is None else ("",)
    return csv_line([series.name, "trend", "", "", "", "", *included,
                     *(getattr(series.fit, name, "") for name in _FIT_COLUMNS),
                     series.n_excluded])


_interval_cells = float_cells(3)  # an interval's min, reference and max cells, joined
_impact_cells = float_cells(len(IMPACT_COLUMNS))


def _trends_csv_rows(trends: list[Series]):
    """Each series' points, then its trend row if it was fitted."""
    for series in trends:
        yield from _point_rows(series)
        if series.fit is not None:
            yield _trend_row(series)


# Output file -> (the stage subcommand that writes it, whether report writes
# it too, its CSV header (None: a JSON file), run -> its lines or JSON
# payload), in write order. A row function reads only the stages its file
# shows, so writing the file computes those stages and no others. It yields
# each row as one finished line (see inputs): an f-string for the estimate,
# impact and point rows, which make up most of a report, csv_line for the rest.
OUTPUTS = {
    "catalog.csv": ("ingest", False, CARD_COLUMNS, lambda run: card_rows(run.cards[1])),
    "systems_normalized.csv": ("ingest", False, SYSTEM_COLUMNS,
                               lambda run: system_rows(run.systems[0])),
    "merge_report.json": ("ingest", False, None,
                          lambda run: _merge_report_payload(run.cards[2])),
    "coverage.csv": ("coverage", True, ("row", *COVERAGE_METRICS),
                     lambda run: map(csv_line, run.coverage.csv_rows())),
    "coverage.json": ("coverage", False, None, lambda run: run.coverage.as_dict()),
    "bridge.json": ("bridge", True, None, lambda run: _bridge_payload(*run.bridge)),
    "estimates.csv": (
        "estimate", True,
        ("system", "method", "gpu_hours_min", "gpu_hours_ref", "gpu_hours_max"),
        lambda run: (f"{quote_cell(system.name)},{est.method},{_interval_cells(*est.interval)}"
                     for system, _, est in run.estimates[0]),
    ),
    "impacts.csv": (
        "impacts", True,
        ("system", "date", *IMPACT_COLUMNS, "method"),
        lambda run: (f"{quote_cell(name)},{date},{_impact_cells(*values)},{method}"
                     for name, date, *values, method, _ in zip(*run.impacts[0])),
    ),
    "trends.csv": (
        "trends", True,
        ("series", "kind", "name", "date", "year", "value", *_FIT_COLUMNS, "n_excluded"),
        lambda run: _trends_csv_rows(run.trends),
    ),
    "embodied_shares.csv": (
        "impacts", True, ShareSummary._fields, lambda run: map(csv_line, run.shares[0]),
    ),
    # written as scenario_<ratio>.csv; report writes it only when a ratio is
    # set. The points of both series, then both trend rows, fitted or not.
    "scenario.csv": (
        "scenario", True,
        ("series", "kind", "system", "date", "year", "gwp_kg", "included", *_FIT_COLUMNS,
         "n_excluded_floor"),
        lambda run: chain(*map(_point_rows, run.scenario), map(_trend_row, run.scenario)),
    ),
}


def _write(run: Run, name: str, path: Path) -> None:
    """Write output `name` of the run to path: CSV rows, or a JSON payload."""
    _, _, header, content = OUTPUTS[name]
    if header is None:
        path.write_text(json.dumps(content(run), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    else:
        _write_csv(path, header, content(run))


def run_pipeline(config: RunConfig, command: str = "report") -> Run:
    """Write the outputs of a subcommand under config.out, in OUTPUTS order:
    a stage subcommand's own files, or for "report" those marked for it, with
    scenario.csv only when a ratio is set.

    scenario.csv is written as scenario_<ratio>.csv. The files are written to
    a temporary directory beside config.out and moved into it only once every
    file has been written, so a failed run leaves config.out as it was, and
    removes the parent directories it created for it. Returns the run, which
    holds the computed stages, the written file names, counts and
    provenance."""
    commands = {owner for owner, *_ in OUTPUTS.values()} | {"report"}
    if command not in commands:
        raise PipelineError(f"unknown command {command!r}; expected one of {sorted(commands)}")
    names = [name for name, (owner, in_report, *_) in OUTPUTS.items()
             if owner == command or command == "report" and in_report]
    if "scenario.csv" in names and config.scenario_ratio is None:
        if command == "scenario":
            raise ConfigError("scenario requires --scenario-ratio")
        names.remove("scenario.csv")
    out = Path(config.out)
    created = [d for d in (out, *out.parents) if not os.path.exists(d)]  # deepest first
    run = Run(config)
    gc_enabled = gc.isenabled()
    gc.disable()  # the run's records hold no reference cycles; collections only rescan them
    try:
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            staging = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
        except OSError as exc:
            raise PipelineError(f"cannot create output directory {out}: {exc}") from None
        try:
            for name in names:
                file_name = (f"scenario_{format_cell(config.scenario_ratio)}.csv"
                             if name == "scenario.csv" else name)
                _write(run, name, staging / file_name)
                run.output_files.append(file_name)
            try:
                out.mkdir(exist_ok=True)
                for name in run.output_files:
                    os.replace(staging / name, out / name)
            except OSError as exc:  # say, a file already holds that path
                raise PipelineError(f"cannot write output directory {out}: {exc}") from None
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    except BaseException:
        for directory in created:
            with contextlib.suppress(OSError):  # not empty, or never made
                directory.rmdir()
        raise
    finally:
        if gc_enabled:
            gc.enable()
    return run
