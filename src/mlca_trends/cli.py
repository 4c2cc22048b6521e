"""Command-line entry point.

Subcommands run individual pipeline stages (ingest, coverage, bridge,
estimate, impacts, trends, scenario) or the whole thing (report). All paths
can be bundled in a JSON file pointed to by the MLCA_TRENDS_CONFIG
environment variable; explicit flags win over the bundle, which wins over
the data files shipped with the package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (
    CatalogError,
    ConfigError,
    EstimationError,
    LcaError,
    MlcaTrendsError,
    PipelineError,
    StatsError,
    SystemsError,
)
from .inputs import read_json
from .pipeline import Run, RunConfig, run_pipeline

ENV_CONFIG = "MLCA_TRENDS_CONFIG"

_PATH_FLAGS = [
    ("--cards", "cards", "primary card table CSV (TechPowerUp-style schema)"),
    ("--cards-alt", "cards_alt", "second card table CSV to cross-validate against"),
    ("--cards-extra", "cards_extra", "curated non-workstation/accelerator card CSV"),
    ("--overrides", "overrides", "datasheet override CSV (name,field,value)"),
    ("--systems", "systems", "notable ML systems CSV"),
    ("--mixes", "mixes", "electricity mix CSV (country,ci g/kWh,adpe kgSb/kWh)"),
    ("--factors", "factors", "production impact factor JSON"),
    ("--constants", "constants", "datacenter constants JSON (PUE, lifespan, ...)"),
    ("--plausibility", "plausibility", "ambiguous-name plausibility JSON"),
    ("--server-profiles", "server_profiles", "server layout rules JSON"),
    ("--column-map", "column_map", "systems column-mapping JSON"),
]

# MLCA_TRENDS_CONFIG key -> (accepts the JSON value, what it must be)
_PATH = (lambda v: isinstance(v, str), "a path string")
_NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number")
_ENV_SCHEMA = {
    **{dest: _PATH for _, dest, _ in _PATH_FLAGS},
    "out": _PATH,
    "apply_bridge": (lambda v: isinstance(v, bool) or v in ("true", "false"),
                     'true, false, "true" or "false"'),
    "scenario_ratio": _NUMBER,
    "gwp_floor": _NUMBER,
    "seed": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
}

_STAGE_BY_ERROR = (
    (CatalogError, "catalog"),
    (SystemsError, "systems"),
    (EstimationError, "estimation"),
    (LcaError, "lca"),
    (StatsError, "stats"),
    (ConfigError, "config"),
    (PipelineError, "pipeline"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlca-trends",
        description="Life-cycle assessment trends for machine-learning compute.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        for flag, dest, help_text in _PATH_FLAGS:
            p.add_argument(flag, dest=dest, type=Path, default=None, help=help_text)
        p.add_argument("--out", type=Path, default=None, help="output directory (default ./out)")
        p.add_argument(
            "--apply-bridge",
            nargs="?",
            const="true",
            choices=["true", "false"],
            default=None,
            help="calibrate compute-based estimates with the bridge regression (default true)",
        )
        p.add_argument("--scenario-ratio", type=float, default=None,
                       help="annual carbon-intensity reduction ratio in [0, 1]; "
                       "above 0.25 is outside the explored range")
        p.add_argument("--gwp-floor", type=float, default=None,
                       help="exclude systems below this footprint (kgCO2eq) in scenario series")
        p.add_argument("--seed", type=int, default=None, help="recorded in provenance")

    for name, (help_text, _, _) in _SUBCOMMANDS.items():
        add_common(sub.add_parser(name, help=help_text))
    return parser


def _env_defaults() -> dict:
    path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    data = read_json(path, ConfigError, f"{ENV_CONFIG} file")
    unknown = sorted(set(data) - set(_ENV_SCHEMA))
    if unknown:
        raise ConfigError(
            f"{ENV_CONFIG} file {path} has unknown keys {unknown}; known: {sorted(_ENV_SCHEMA)}"
        )
    for key, value in data.items():
        accepts, kind = _ENV_SCHEMA[key]
        if not accepts(value):
            raise ConfigError(f"{ENV_CONFIG} file {path}: {key!r} must be {kind}, got {value!r}")
    return data


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    env = _env_defaults()

    def pick(name, fallback=None):
        value = getattr(args, name, None)
        if value is not None:
            return value
        return env.get(name, fallback)

    return RunConfig(
        out=Path(pick("out", "out")),
        cards=pick("cards"),
        cards_alt=pick("cards_alt"),
        cards_extra=pick("cards_extra"),
        overrides=pick("overrides"),
        systems=pick("systems"),
        mixes=pick("mixes"),
        factors=pick("factors"),
        constants=pick("constants"),
        plausibility=pick("plausibility"),
        server_profiles=pick("server_profiles"),
        column_map=pick("column_map"),
        apply_bridge=pick("apply_bridge", True) in (True, "true"),
        scenario_ratio=pick("scenario_ratio"),
        gwp_floor=float(pick("gwp_floor", 50.0)),
        seed=int(pick("seed", 0)),
    )


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _ingest_summary(run: Run) -> dict:
    bundle = run.bundle
    return {
        "cards_total": len(bundle.full_catalog),
        "cards_validated": bundle.merge_report.validated,
        "card_row_errors": [vars(e) for e in bundle.card_row_errors],
        "systems_total": len(bundle.systems),
        "system_row_errors": [vars(e) for e in bundle.system_row_errors],
        "outputs": run.output_files,
    }


def _scenario_summary(run: Run) -> dict:
    comparison = run.scenario
    return {
        "ratio": comparison.ratio,
        "excluded_real": comparison.excluded_real,
        "excluded_scenario": comparison.excluded_scenario,
        "growth_factor_real": getattr(comparison.trend_real, "growth_factor", None),
        "growth_factor_scenario": getattr(comparison.trend_scenario, "growth_factor", None),
        "outputs": run.output_files,
    }


# Subcommand -> (help, the outputs it writes (None: the report's), its stdout).
# Writing an output computes only the stages that output needs.
_SUBCOMMANDS = {
    "ingest": ("parse and merge card tables, normalize the systems table",
               {"catalog.csv", "systems_normalized.csv", "merge_report.json"}, _ingest_summary),
    "coverage": ("coverage statistics of the systems table", {"coverage.csv", "coverage.json"},
                 lambda run: {**run.coverage.as_dict(), "outputs": run.output_files}),
    "bridge": ("fit the log-log bridge between the two GPU-hour estimators", {"bridge.json"},
               Run.as_dict),
    "estimate": ("per-system GPU-hour estimates", {"estimates.csv"}, Run.as_dict),
    "impacts": ("per-system life-cycle impacts and embodied shares",
                {"impacts.csv", "embodied_shares.csv"}, Run.as_dict),
    "trends": ("exponential trend fits and plot-ready series", {"trends.csv"}, Run.as_dict),
    "scenario": ("compare real vs reduced carbon-intensity footprints", {"scenario.csv"},
                 _scenario_summary),
    "report": ("full pipeline: all outputs", None, Run.as_dict),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _, outputs, summarize = _SUBCOMMANDS[args.command]
    try:
        _print_json(summarize(run_pipeline(_config_from_args(args), only=outputs)))
    except MlcaTrendsError as exc:
        stage = "pipeline"
        for error_type, label in _STAGE_BY_ERROR:
            if isinstance(exc, error_type):
                stage = label
                break
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
