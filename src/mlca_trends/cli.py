"""Command-line entry point.

Subcommands run individual pipeline stages (ingest, coverage, bridge,
estimate, impacts, trends, scenario) or the whole thing (report). Each
RunConfig field is a flag of every subcommand and a key of the JSON file
named by the MLCA_TRENDS_CONFIG environment variable; explicit flags win over
that file, which wins over RunConfig's defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
import warnings
from pathlib import Path

from . import __version__
from .errors import ConfigError, MlcaTrendsError
from .inputs import read_json
from .pipeline import Run, RunConfig, run_pipeline

ENV_CONFIG = "MLCA_TRENDS_CONFIG"

# RunConfig field -> its flag's help. Each field is a flag (--cards-alt for
# cards_alt) and an MLCA_TRENDS_CONFIG key of the same name.
_HELP = {
    "out": "output directory (default ./out)",
    "cards": "primary card table CSV (TechPowerUp-style schema)",
    "cards_alt": "second card table CSV to cross-validate against",
    "cards_extra": "curated non-workstation/accelerator card CSV (\"\" for none)",
    "overrides": "datasheet override CSV (name,field,value)",
    "systems": "notable ML systems CSV",
    "mixes": "electricity mix CSV (country,ci g/kWh,adpe kgSb/kWh)",
    "factors": "production impact factor JSON",
    "constants": "datacenter constants JSON (PUE, lifespan, ...)",
    "plausibility": "ambiguous-name plausibility JSON",
    "server_profiles": "server layout rules JSON",
    "column_map": "systems column-mapping JSON",
    "apply_bridge": "calibrate compute-based estimates with the bridge regression (default true)",
    "scenario_ratio": "annual carbon-intensity reduction ratio in [0, 1]; "
    "above 0.25 is outside the explored range",
    "gwp_floor": "exclude systems below this footprint (kgCO2eq) in scenario series",
}

# RunConfig field type -> (argparse keywords of its flag, what its
# MLCA_TRENDS_CONFIG value must be)
_KINDS = {
    "Path": ({}, "a path string"),
    "float": ({"type": float}, "a number in the float range"),
    "bool": ({"nargs": "?", "const": "true", "choices": ["true", "false"]},
             'true, false, "true" or "false"'),
}


def _kind(field: dataclasses.Field) -> str:
    return field.type.removesuffix(" | None")


def _field_value(field: dataclasses.Field, value):
    """A flag's or MLCA_TRENDS_CONFIG's value as that RunConfig field's value:
    None for "" or null where the field may be None (no file, for a path),
    TypeError if it is none of its kind, OverflowError past the float range.
    An empty required path stays "", so that RunConfig can reject an empty out."""
    kind = _kind(field)
    if value in ("", None) and kind != field.type:
        return None
    if kind == "Path" and isinstance(value, str):
        return Path(value) if value else value
    if kind == "float" and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind == "bool" and (isinstance(value, bool) or value in ("true", "false")):
        return value in (True, "true")
    raise TypeError(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlca-trends",
        description="Life-cycle assessment trends for machine-learning compute.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, _) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for field in dataclasses.fields(RunConfig):
            command.add_argument(f"--{field.name.replace('_', '-')}", help=_HELP[field.name],
                                 **_KINDS[_kind(field)][0])
    return parser


def _env_defaults() -> dict:
    path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    data = read_json(path, ConfigError, f"{ENV_CONFIG} file")
    fields = {field.name: field for field in dataclasses.fields(RunConfig)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(
            f"{ENV_CONFIG} file {path} has unknown keys {unknown}; known: {sorted(fields)}"
        )
    values = {}
    for key, value in data.items():
        try:
            values[key] = _field_value(fields[key], value)
        except (TypeError, OverflowError):
            raise ConfigError(f"{ENV_CONFIG} file {path}: {key!r} must be "
                              f"{_KINDS[_kind(fields[key])][1]}, got {value!r}") from None
    return values


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The flags given, over the MLCA_TRENDS_CONFIG values, over RunConfig's defaults."""
    values = _env_defaults()
    for field in dataclasses.fields(RunConfig):
        if getattr(args, field.name) is not None:
            values[field.name] = _field_value(field, getattr(args, field.name))
    return RunConfig(**values)


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
    real, scenario = run.scenario
    return {
        "ratio": run.config.scenario_ratio,
        "excluded_real": real.n_excluded,
        "excluded_scenario": scenario.n_excluded,
        "growth_factor_real": getattr(real.fit, "growth_factor", None),
        "growth_factor_scenario": getattr(scenario.fit, "growth_factor", None),
        "outputs": run.output_files,
    }


# Subcommand -> (help, its stdout). The files each writes are pipeline.OUTPUTS'.
_SUBCOMMANDS = {
    "ingest": ("parse and merge card tables, normalize the systems table", _ingest_summary),
    "coverage": ("coverage statistics of the systems table",
                 lambda run: {**run.coverage.as_dict(), "outputs": run.output_files}),
    "bridge": ("fit the log-log bridge between the two GPU-hour estimators", Run.as_dict),
    "estimate": ("per-system GPU-hour estimates", Run.as_dict),
    "impacts": ("per-system life-cycle impacts and embodied shares", Run.as_dict),
    "trends": ("exponential trend fits and plot-ready series", Run.as_dict),
    "scenario": ("compare real vs reduced carbon-intensity footprints", _scenario_summary),
    "report": ("full pipeline: all outputs", Run.as_dict),
}


def _module_label(filename) -> str:
    """The package module a file is, or pipeline for any other file."""
    where = Path(filename)
    return where.stem if where.parent == Path(__file__).parent else "pipeline"


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Prints a warning as one `warning [module]: …` line on stderr, labelled
    by the package module it is attributed to."""
    print(f"warning [{_module_label(filename)}]: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _, summarize = _SUBCOMMANDS[args.command]
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            run = run_pipeline(_config_from_args(args), args.command)
            print(json.dumps(summarize(run), indent=2, sort_keys=True))
    except MlcaTrendsError as exc:
        print(f"error [{exc.stage}]: {exc}", file=sys.stderr)
        return 1
    except Warning as exc:  # a filter such as -W error raised it; label its innermost frame
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        print(f"error [{_module_label(tb.tb_frame.f_code.co_filename)}]: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> int:
    """main() as the process entry of `python -m mlca_trends.cli` and the
    mlca-trends script: the heap is then frozen, so the shutdown collections
    skip what numpy, scipy and the run left. atexit handlers still run."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
