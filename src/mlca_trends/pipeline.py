"""End-to-end pipeline: ingest -> merge -> eligibility -> bridge -> estimates
-> impacts -> trends -> tables.

Every stage is a plain function over the loaded bundle. A `Run` computes
each stage at most once, when an output first needs it; `run_pipeline` writes
a set of named outputs through it (by default the report's coverage.csv,
bridge.json, estimates.csv, impacts.csv, trends.csv and embodied_shares.csv,
plus scenario_<ratio>.csv when a scenario is requested), so a stage
subcommand computes only the stages behind its own files.
Outputs are deterministic: identical inputs and config produce byte-identical
files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import cached_property
from importlib.resources import files as _resource_files
from pathlib import Path

from . import __version__
from .catalog import (
    CardIndex,
    CardReference,
    CardSpec,
    MergeReport,
    characteristic_series,
    load_overrides,
    load_plausibility,
    merge_catalogs,
    parse_card_table,
    resolve_card_reference,
    serialize_card_table,
)
from .errors import (
    CannotEstimateError,
    ConfigError,
    DegenerateDataError,
    EstimationError,
    MissingPeakError,
    PipelineError,
    StatsError,
    UnknownCountryError,
    UnresolvedCardError,
)
from .estimation import (
    BridgeModel,
    detect_anomalies,
    estimate_gpu_hours,
    fit_bridge,
    gpu_hours_from_flop,
)
from .inputs import format_cell, write_csv as _write_csv  # the name clibench's tracer wraps
from .lca import (
    SystemImpact,
    embodied_share_table,
    load_constants,
    load_impact_factors,
    load_mix_table,
    load_server_profiles,
    production_impact,
    scenario_gwp,
    system_impact,
)
from .stats import TrendFit, exp_trend, to_fractional_year
from .systems import (
    coverage_summary,
    eligible_systems,
    load_column_map,
    parse_systems_table,
    serialize_systems_table,
)

__all__ = [
    "Run",
    "RunConfig",
    "ScenarioComparison",
    "default_data_path",
    "run_pipeline",
]

OUTPUT_SCHEMAS = {
    "coverage.csv": [
        "row", "systems", "flop", "hardware", "flop_and_hardware",
        "duration", "quantity", "duration_and_quantity", "duration_quantity_hardware",
    ],
    "estimates.csv": ["system", "method", "gpu_hours_min", "gpu_hours_ref", "gpu_hours_max"],
    "impacts.csv": [
        "system", "date",
        "energy_kwh_min", "energy_kwh_ref", "energy_kwh_max",
        "gwp_kg_min", "gwp_kg_ref", "gwp_kg_max",
        "adpe_kgsb_min", "adpe_kgsb_ref", "adpe_kgsb_max",
        "embodied_gwp_ref", "embodied_adpe_ref", "method",
    ],
    "trends.csv": [
        "series", "kind", "name", "date", "year", "value",
        "slope_per_year", "intercept", "growth_factor", "cagr_pct",
        "doubling_time_years", "weighting", "n_used", "n_excluded",
    ],
    "embodied_shares.csv": ["metric", "min", "q1", "median", "mean", "q3", "max", "n", "excluded"],
    "scenario.csv": [
        "series", "kind", "system", "date", "year", "gwp_kg", "included",
        "slope_per_year", "intercept", "growth_factor", "cagr_pct",
        "doubling_time_years", "weighting", "n_used", "n_excluded_floor",
    ],
}

# Trend weighting follows the figure methodology: per-system quantities and
# footprints are fitted with feasible WLS (heteroscedastic), card
# characteristics with plain OLS.
_SYSTEM_TREND_WEIGHTING = "feasible_wls"
_CARD_TREND_WEIGHTING = "ols"


def default_data_path(name: str) -> Path:
    return Path(str(_resource_files("mlca_trends.data").joinpath(name)))


@dataclass(frozen=True)
class RunConfig:
    """Paths and flags for one pipeline run. None paths fall back to the
    bundled data files (cards_alt/overrides/column_map stay unused)."""

    out: Path
    cards: Path = None
    cards_alt: Path | None = None
    cards_extra: Path | None = None
    overrides: Path | None = None
    systems: Path = None
    mixes: Path = None
    factors: Path = None
    constants: Path = None
    plausibility: Path = None
    server_profiles: Path = None
    column_map: Path | None = None
    apply_bridge: bool = True
    scenario_ratio: float | None = None
    gwp_floor: float = 50.0
    seed: int = 0

    def __post_init__(self):
        defaults = {
            "cards": "cards_nvidia_workstation.csv",
            "cards_extra": "cards_other.csv",
            "systems": "systems_sample.csv",
            "mixes": "electricity_mixes.csv",
            "factors": "impact_factors.json",
            "constants": "lca_constants.json",
            "plausibility": "plausibility.json",
            "server_profiles": "server_profiles.json",
        }
        for name, filename in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default_data_path(filename))
        for name in ("out", "cards", "cards_alt", "cards_extra", "overrides", "systems",
                     "mixes", "factors", "constants", "plausibility", "server_profiles",
                     "column_map"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, Path(value))
        if not (math.isfinite(self.gwp_floor) and self.gwp_floor >= 0):
            raise PipelineError(f"gwp floor must be a finite number >= 0, got {self.gwp_floor}")
        if self.scenario_ratio is not None and not 0 <= self.scenario_ratio <= 1:
            raise PipelineError(f"scenario ratio must be in [0, 1], got {self.scenario_ratio}")

    def sha256(self) -> str:
        payload = {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in dataclasses.asdict(self).items()
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()


@dataclass
class Bundle:
    """Everything loaded and merged, shared read-only by the stages."""

    workstation_cards: list[CardSpec]
    full_catalog: list[CardSpec]
    merge_report: MergeReport
    card_row_errors: list
    systems: list
    system_row_errors: list
    mixes: dict
    factors: object
    constants: object
    server_profiles: object
    plausibility: dict


@dataclass(frozen=True)
class ScenarioComparison:
    ratio: float
    points: list  # (series, system_name, date, gwp_kg, included)
    excluded_real: int
    excluded_scenario: int
    trend_real: TrendFit | None
    trend_scenario: TrendFit | None


def load_bundle(config: RunConfig) -> Bundle:
    cards_a, errors_a = parse_card_table(config.cards, "techpowerup")
    if config.cards_alt is not None:
        cards_b, errors_b = parse_card_table(config.cards_alt, "wiki")
        overrides = load_overrides(config.overrides) if config.overrides else None
        workstation, report = merge_catalogs(cards_a, cards_b, overrides)
        card_errors = errors_a + errors_b
    else:
        workstation = cards_a
        report = MergeReport(total_cards=len(cards_a), validated=0, divergent=())
        card_errors = errors_a

    full_catalog = list(workstation)
    if config.cards_extra is not None:
        extra, errors_extra = parse_card_table(config.cards_extra, "other")
        full_catalog.extend(extra)
        card_errors = card_errors + errors_extra

    column_map = load_column_map(config.column_map) if config.column_map else None
    systems, system_errors = parse_systems_table(config.systems, column_map)

    return Bundle(
        workstation_cards=workstation,
        full_catalog=full_catalog,
        merge_report=report,
        card_row_errors=card_errors,
        systems=systems,
        system_row_errors=system_errors,
        mixes=load_mix_table(config.mixes),
        factors=load_impact_factors(config.factors),
        constants=load_constants(config.constants),
        server_profiles=load_server_profiles(config.server_profiles),
        plausibility=load_plausibility(config.plausibility),
    )


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
            h2 = gpu_hours_from_flop(system.training_flop, card_ref.reference).value
        except MissingPeakError:
            continue
        h1 = system.training_hours * system.hardware_quantity
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
        except (EstimationError, MissingPeakError) as exc:
            skipped.append((system.name, str(exc)))
            continue
        rows.append((system, card_ref, estimate))
    return rows, skipped


def impact_stage(bundle: Bundle, estimate_rows):
    """Impacts for every estimated system whose hardware resolved; each
    card's constants are computed once for the whole pass."""
    impacts: list[SystemImpact] = []
    skipped = []
    card_constants = {}
    for system, card_ref, estimate in estimate_rows:
        if card_ref is None:
            skipped.append(
                (system.name, "no resolvable hardware; impacts need a specific card")
            )
            continue
        try:
            impacts.append(
                system_impact(
                    system,
                    estimate,
                    card_ref,
                    bundle.mixes,
                    bundle.server_profiles,
                    bundle.factors,
                    bundle.constants,
                    card_constants,
                )
            )
        except (CannotEstimateError, UnknownCountryError, ValueError) as exc:
            # ValueError: a footprint overflowed to inf, which impacts reject
            skipped.append((system.name, str(exc)))
    return impacts, skipped


def _chronological(points):
    """(date, value) pairs of (date, value, name) triples, by date then name."""
    return [(d, v) for d, v, _ in sorted(points, key=lambda p: (p[0], p[2]))]


def trend_stage(bundle: Bundle, impacts):
    """All plot-ready series with their fits: card characteristics, card
    production impacts, per-system footprints, hardware quantities."""
    cards = bundle.workstation_cards
    series = [
        (f"card_{name}", characteristic_series(cards, name), _CARD_TREND_WEIGHTING)
        for name in ("die_area", "process_node", "memory_size", "tdp")
    ]
    production = []
    for card in cards:
        try:
            production.append((card, production_impact(card, bundle.factors)))
        except CannotEstimateError:
            continue
    for metric in ("gwp_kg", "adpe_kgsb"):
        points = [(c.release_date, getattr(impact, metric), c.name) for c, impact in production]
        series.append((f"card_production_{metric}", _chronological(points), _CARD_TREND_WEIGHTING))
    for metric in ("energy_kwh", "gwp_kg", "adpe_kgsb"):
        points = [(r.publication_date, getattr(r, metric).reference, r.system_name)
                  for r in impacts]
        series.append((f"system_{metric}", _chronological(points), _SYSTEM_TREND_WEIGHTING))
    quantities = [
        (s.publication_date, float(s.hardware_quantity), s.name)
        for s in bundle.systems
        if s.hardware_quantity is not None
    ]
    series.append(("hardware_quantity", _chronological(quantities), _SYSTEM_TREND_WEIGHTING))

    fitted = []
    for name, points, weighting in series:
        try:
            fit = exp_trend(points, weighting=weighting)
        except StatsError:
            fit = None  # too few positive points or degenerate; points still emitted
        fitted.append((name, points, fit, weighting))
    return fitted


def _scenario_from_rows(impacts_real, ratio, gwp_floor) -> ScenarioComparison:
    """Real vs carbon-intensity-reduction footprints for post-2019 systems.

    The real series is the run's impacts; the scenario series reprices each
    one's reference usage phase. Both series drop systems whose carbon
    footprint falls below the floor; exclusion counts are reported per series.
    """
    if not any(r.publication_date.year >= 2019 for r in impacts_real):
        raise PipelineError("no post-2019 systems; scenario comparison is empty")
    points = []
    excluded = {"real": 0, "scenario": 0}
    fits = {}
    for series in ("real", "scenario"):
        kept = []
        for r in impacts_real:
            if r.publication_date.year < 2019:
                continue
            value = r.gwp_kg.reference if series == "real" else scenario_gwp(r, ratio)
            included = value >= gwp_floor
            if not included:
                excluded[series] += 1
            else:
                kept.append((r.publication_date, value))
            points.append((series, r.system_name, r.publication_date, value, included))
        try:
            fits[series] = exp_trend(kept, weighting=_SYSTEM_TREND_WEIGHTING)
        except StatsError:
            fits[series] = None
    return ScenarioComparison(
        ratio, points, excluded["real"], excluded["scenario"], fits["real"], fits["scenario"]
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _trend_cells(fit: TrendFit | None):
    if fit is None:
        return ["", "", "", "", "", "", "", ""]
    return [
        fit.slope_per_year, fit.intercept, fit.growth_factor, fit.cagr_pct,
        fit.doubling_time_years, fit.weighting, fit.n_used, fit.n_excluded,
    ]


def write_scenario_csv(path: Path, comparison: ScenarioComparison) -> None:
    rows = []
    for series, system_name, date, value, included in comparison.points:
        rows.append(
            [series, "point", system_name, date, round(to_fractional_year(date), 6), value,
             "true" if included else "false", "", "", "", "", "", "", "", ""]
        )
    for series, fit, n_excl in (
        ("real", comparison.trend_real, comparison.excluded_real),
        ("scenario", comparison.trend_scenario, comparison.excluded_scenario),
    ):
        cells = _trend_cells(fit)
        rows.append([series, "trend", "", "", "", "", "", *cells[:6], cells[6], n_excl])
    _write_csv(path, OUTPUT_SCHEMAS["scenario.csv"], rows)


class Run:
    """One pipeline run over a config. Each stage is a cached property:
    computed on first use, at most once, so writing an output computes only
    the stages that output reads."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.output_files: list[str] = []

    @cached_property
    def bundle(self) -> Bundle:
        return load_bundle(self.config)

    @cached_property
    def coverage(self):
        return coverage_summary(self.bundle.systems)

    @cached_property
    def eligibility(self):
        """(eligible systems, [(excluded system, reason)])."""
        return eligible_systems(self.bundle.systems)

    @cached_property
    def card_refs(self) -> dict[str, CardReference | None]:
        """One resolution per distinct hardware string of the eligible
        systems (each names one at most); None where no card matches."""
        index = CardIndex(self.bundle.full_catalog)
        refs = {}
        for system in self.eligibility[0]:
            if system.hardware_names and system.hardware_names[0] not in refs:
                name = system.hardware_names[0]
                try:
                    refs[name] = resolve_card_reference(name, index, self.bundle.plausibility)
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
        return impact_stage(self.bundle, self.estimates[0])

    @cached_property
    def trends(self):
        return trend_stage(self.bundle, self.impacts[0])

    @cached_property
    def shares(self):
        return embodied_share_table([(r.embodied_ref, r.total_ref) for r in self.impacts[0]])

    @cached_property
    def scenario(self) -> ScenarioComparison:
        return _scenario_from_rows(
            self.impacts[0], self.config.scenario_ratio, self.config.gwp_floor
        )

    @property
    def counts(self) -> dict[str, int]:
        """Counts of the stages this run computed."""
        ran = vars(self)
        counts = {}
        if "bundle" in ran:
            b = self.bundle
            counts.update(
                cards_workstation=len(b.workstation_cards), cards_total=len(b.full_catalog),
                cards_validated=b.merge_report.validated, card_row_errors=len(b.card_row_errors),
                systems_total=len(b.systems), system_row_errors=len(b.system_row_errors),
            )
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
            counts.update(impacts=len(self.impacts[0]), impact_skips=len(self.impacts[1]))
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
            "seed": config.seed,
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
            {**vars(d), "value_a": str(d.value_a), "value_b": str(d.value_b)}
            for d in report.divergent
        ],
    }


_BRIDGE_MODEL_KEYS = ("intercept", "slope", "intercept_se", "slope_se", "adj_r2", "f_statistic",
                      "f_df", "f_pvalue", "n_observations", "performance_ratio")


def _bridge_payload(bridge: BridgeModel | None, counts: dict) -> dict:
    return {
        "model": None if bridge is None else {
            **{k: getattr(bridge, k) for k in _BRIDGE_MODEL_KEYS}, "log_base": "natural"
        },
        "diagnostics": None
        if bridge is None or bridge.diagnostics is None
        else {
            "shapiro_wilk": list(bridge.diagnostics.shapiro_wilk),
            "breusch_pagan_studentized": list(bridge.diagnostics.breusch_pagan),
            "durbin_watson": list(bridge.diagnostics.durbin_watson),
        },
        "counts": counts,
        "anomaly_rule": "finetuned OR |log-ratio - median| > 3*MAD",
    }


def _trend_rows(trends):
    for name, points, fit, weighting in trends:
        for date, value in points:
            yield [name, "point", "", date, round(to_fractional_year(date), 6), value,
                   "", "", "", "", "", "", "", ""]
        if fit is not None:
            yield [name, "trend", "", "", "", "", *_trend_cells(fit)]


# Output name -> writer(run, path). A writer reads only the stages its file
# shows, so writing it computes those stages and no others.
WRITERS = {
    "catalog.csv": lambda run, path: serialize_card_table(run.bundle.full_catalog, path),
    "systems_normalized.csv": lambda run, path: serialize_systems_table(run.bundle.systems, path),
    "merge_report.json": lambda run, path: _write_json(
        path, _merge_report_payload(run.bundle.merge_report)
    ),
    "coverage.csv": lambda run, path: _write_csv(
        path, OUTPUT_SCHEMAS["coverage.csv"], run.coverage.csv_rows()[1:]
    ),
    "coverage.json": lambda run, path: _write_json(path, run.coverage.as_dict()),
    "bridge.json": lambda run, path: _write_json(path, _bridge_payload(*run.bridge)),
    "estimates.csv": lambda run, path: _write_csv(path, OUTPUT_SCHEMAS["estimates.csv"], (
        [system.name, est.method, est.interval.min, est.interval.reference, est.interval.max]
        for system, _, est in run.estimates[0]
    )),
    "impacts.csv": lambda run, path: _write_csv(path, OUTPUT_SCHEMAS["impacts.csv"], (
        [r.system_name, r.publication_date,
         r.energy_kwh.min, r.energy_kwh.reference, r.energy_kwh.max,
         r.gwp_kg.min, r.gwp_kg.reference, r.gwp_kg.max,
         r.adpe_kgsb.min, r.adpe_kgsb.reference, r.adpe_kgsb.max,
         r.embodied_ref.gwp_kg, r.embodied_ref.adpe_kgsb, r.method]
        for r in run.impacts[0]
    )),
    "trends.csv": lambda run, path: _write_csv(
        path, OUTPUT_SCHEMAS["trends.csv"], _trend_rows(run.trends)
    ),
    "embodied_shares.csv": lambda run, path: _write_csv(
        path, OUTPUT_SCHEMAS["embodied_shares.csv"],
        ([s.metric, s.min, s.q1, s.median, s.mean, s.q3, s.max, s.n, s.excluded]
         for s in run.shares[0]),
    ),
    "scenario.csv": lambda run, path: write_scenario_csv(path, run.scenario),
}
REPORT_OUTPUTS = (
    "coverage.csv", "bridge.json", "estimates.csv", "impacts.csv", "trends.csv",
    "embodied_shares.csv",
)


def run_pipeline(config: RunConfig, only: set[str] | None = None) -> Run:
    """Write the outputs named in `only` (default: the report outputs, plus
    scenario.csv when a ratio is set) under config.out, in WRITERS order.

    scenario.csv is written as scenario_<ratio>.csv. The files are written to
    a temporary directory beside config.out and moved into it only once every
    writer has succeeded, so a failed run leaves config.out as it was, and
    removes the parent directories it created for it. Returns the run, which
    holds the computed stages, the written file names, counts and
    provenance."""
    if only is None:
        only = {*REPORT_OUTPUTS, *(["scenario.csv"] if config.scenario_ratio is not None else [])}
    unknown = sorted(set(only) - set(WRITERS))
    if unknown:
        raise PipelineError(f"unknown outputs {unknown}; expected some of {list(WRITERS)}")
    if "scenario.csv" in only and config.scenario_ratio is None:
        raise ConfigError("scenario requires --scenario-ratio")
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
            for name, writer in WRITERS.items():
                if name in only:
                    if name == "scenario.csv":
                        name = f"scenario_{format_cell(config.scenario_ratio)}.csv"
                    writer(run, staging / name)
                    run.output_files.append(name)
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
