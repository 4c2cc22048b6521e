import codecs
import csv
import datetime as dt
import gc
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import mlca_trends
from mlca_trends import pipeline
from mlca_trends.catalog import (
    CARD_COLUMNS,
    LATEST_RELEASE_YEAR,
    CardReference,
    CardSpec,
    RowError,
)
from mlca_trends.cli import _build_parser, _config_from_args, main
from mlca_trends.errors import ConfigError, PipelineError
from mlca_trends.estimation import GpuHoursEstimate, fit_bridge
from mlca_trends.inputs import format_cell
from mlca_trends.intervals import EstimateInterval
from mlca_trends.lca import (
    ElectricityMix,
    ImpactVector,
    LcaConstants,
    ServerProfile,
    SystemImpact,
    load_constants,
    load_impact_factors,
    load_server_profiles,
    production_impact,
)
from mlca_trends.pipeline import (
    OUTPUTS,
    Run,
    RunConfig,
    default_data_path,
    run_pipeline,
)
from mlca_trends.stats import wls_fit
from mlca_trends.systems import SYSTEM_COLUMNS, SystemRecord
from tests.conftest import make_card
from tests.test_stats import (
    CHI2_NORMAL_BOUND,
    F_TAIL_BOUND,
    chi2_tail_exact,
    durbin_watson_p_exact,
    f_tail_exact,
    tail_error,
)

REPORT_FILES = [
    "coverage.csv", "bridge.json", "estimates.csv",
    "impacts.csv", "trends.csv", "embodied_shares.csv",
]
FIT_COLUMNS = ["slope_per_year", "intercept", "growth_factor", "cagr_pct",
               "doubling_time_years", "weighting", "n_used"]
SCENARIO_HEADER = ["series", "kind", "system", "date", "year", "gwp_kg", "included",
                   *FIT_COLUMNS, "n_excluded_floor"]
# Every CSV output's header, pinned here so that a change to one is seen
CSV_HEADERS = {
    "catalog.csv": [
        "name", "vendor", "release_date", "die_area_mm2", "process_node_nm", "memory_gb",
        "memory_type", "tdp_w", "peak_fp64", "peak_fp32", "peak_fp16", "peak_tensor",
    ],
    "systems_normalized.csv": [
        "name", "publication_date", "training_flop", "hardware_names", "hardware_quantity",
        "training_hours", "countries", "confidence", "finetuned",
    ],
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
        "series", "kind", "name", "date", "year", "value", *FIT_COLUMNS, "n_excluded",
    ],
    "embodied_shares.csv": ["metric", "min", "q1", "median", "mean", "q3", "max", "n", "excluded"],
    "scenario.csv": SCENARIO_HEADER,
}


def read_all(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestRunPipeline:
    def test_bundled_fixture_smoke(self, tmp_path):
        summary = run_pipeline(RunConfig(out=tmp_path / "out"))
        assert summary.output_files == REPORT_FILES
        assert all((tmp_path / "out" / f).is_file() for f in REPORT_FILES)
        assert summary.counts["systems_total"] > 0
        assert summary.counts["estimates"] > 0
        assert summary.provenance["bridge_log_base"] == "natural"

    def test_none_means_no_file_and_str_paths_work(self, tmp_path):
        config = RunConfig(out=str(tmp_path / "out"), cards_extra=None,
                           systems=str(default_data_path("systems_sample.csv")))
        run = run_pipeline(config, "ingest")
        assert run.counts["cards_total"] == run.counts["cards_workstation"]
        assert (tmp_path / "out" / "catalog.csv").is_file()

    def test_byte_identical_reruns(self, tmp_path):
        run_pipeline(RunConfig(out=tmp_path / "a"))
        run_pipeline(RunConfig(out=tmp_path / "b"))
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    def test_output_schemas_stable(self, tmp_path):
        config = RunConfig(out=tmp_path / "out", scenario_ratio=0.25)
        for command in ("ingest", "coverage", "report"):
            run_pipeline(config, command)
        assert {name for name, (_, _, header, _) in OUTPUTS.items() if header} == set(CSV_HEADERS)
        for name, header in CSV_HEADERS.items():
            if name == "scenario.csv":
                name = "scenario_0.25.csv"
            with (tmp_path / "out" / name).open(newline="", encoding="utf-8") as handle:
                assert next(csv.reader(handle)) == header

    def test_scenario_file_added_when_ratio_set(self, tmp_path):
        summary = run_pipeline(RunConfig(out=tmp_path / "out", scenario_ratio=0.25))
        assert summary.output_files == REPORT_FILES + ["scenario_0.25.csv"]

    def test_stage_selection_writes_subset(self, tmp_path):
        summary = run_pipeline(RunConfig(out=tmp_path / "out"), "bridge")
        assert summary.output_files == ["bridge.json"]
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["bridge.json"]

    def test_unknown_command_is_a_pipeline_error(self, tmp_path):
        with pytest.raises(PipelineError, match="unknown command 'nope'"):
            run_pipeline(RunConfig(out=tmp_path / "out"), "nope")
        assert not (tmp_path / "out").exists()

    def test_merge_path_with_overrides(self, tmp_path):
        config = RunConfig(
            out=tmp_path / "out",
            cards_alt=default_data_path("cards_wiki.csv"),
            overrides=default_data_path("overrides.csv"),
        )
        summary = run_pipeline(config)
        assert summary.counts["cards_validated"] == 24

    def test_demo_bridge_flags_finetuned_anomaly(self, tmp_path):
        run_pipeline(RunConfig(out=tmp_path / "out"), "bridge")
        payload = json.loads((tmp_path / "out" / "bridge.json").read_text())
        assert payload["counts"]["anomalous"] == 1
        assert payload["model"]["n_observations"] == payload["counts"]["clean"]
        assert payload["model"]["performance_ratio"] == pytest.approx(
            math.exp(-payload["model"]["intercept"]), rel=1e-12
        )

    def test_bridge_json_p_values_are_scipys_on_the_fitted_pairs(self, tmp_path, monkeypatch):
        fitted = []

        def recorded(pairs):
            fitted.extend(pairs)
            return fit_bridge(pairs)

        monkeypatch.setattr(pipeline, "fit_bridge", recorded)
        run_pipeline(RunConfig(out=tmp_path / "out"))
        payload = json.loads((tmp_path / "out" / "bridge.json").read_text())
        # The statistics are recomputed exactly; each p-value is checked
        # against mpmath, within the bound its tail keeps.
        x = [math.log(h2) for _, h2 in fitted]
        fit = wls_fit(x, [math.log(h1) for h1, _ in fitted])
        e, n = fit.residuals, fit.n
        assert payload["model"]["f_statistic"] == fit.f_statistic
        assert tail_error(payload["model"]["f_pvalue"], f_tail_exact(fit.f_statistic, n - 2)) \
            <= F_TAIL_BOUND
        diagnostics = payload["diagnostics"]
        assert diagnostics["shapiro_wilk"] == list(sps.shapiro(e))
        bp, p = diagnostics["breusch_pagan_studentized"]
        assert bp == n * wls_fit(x, [v * v for v in e]).r2
        assert tail_error(p, chi2_tail_exact(bp)) <= CHI2_NORMAL_BOUND
        dw, p = diagnostics["durbin_watson"]
        assert dw == math.fsum((b - a) * (b - a) for a, b in zip(e, e[1:])) / math.fsum(v * v for v in e)
        assert tail_error(p, durbin_watson_p_exact(dw, n)) <= CHI2_NORMAL_BOUND


_SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(script: str) -> str:
    """Stdout of a script run in a fresh interpreter with src on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "MLCA_TRENDS_CONFIG"}
    env["PYTHONPATH"] = str(_SRC)
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _fresh_main_loads(commands: list[list[str]], *modules: str) -> list[tuple]:
    """Imports mlca_trends.cli, then runs main() over each argument list, in
    one fresh interpreter; returns, after the import and after each run, the
    exit code (None for the import, SystemExit's code where argparse exits)
    and whether any of `modules` is loaded."""
    script = (
        "import contextlib, io, json, sys\n"
        "from mlca_trends.cli import main\n"
        "def run(args):\n"
        "    try:\n"
        "        return main(args)\n"
        "    except SystemExit as exc:  # --help, --version and usage errors\n"
        "        return exc.code\n"
        f"loaded = lambda: any(m in sys.modules for m in {modules!r})\n"
        "steps = [[None, loaded()]]\n"
        f"for args in json.loads({json.dumps(commands)!r}):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        steps.append([run(args), loaded()])\n"
        "print(json.dumps(steps))\n"
    )
    return [tuple(step) for step in json.loads(_fresh_python(script))]


# Each subcommand, with the flags it needs to write its files
EVERY_SUBCOMMAND = [["ingest"], ["coverage"], ["bridge"], ["estimate"], ["impacts"], ["trends"],
                    ["scenario", "--scenario-ratio", "0.1"], ["report", "--scenario-ratio", "0.1"]]


class TestNumpyOnDemand:
    def test_import_loads_neither_numpy_nor_hashlib(self):
        assert _fresh_main_loads([], "numpy") == [(None, False)]
        assert _fresh_main_loads([], "hashlib") == [(None, False)]

    def test_commands_that_compute_nothing_load_no_numpy(self, tmp_path):
        commands = [
            ["--version"],
            ["--help"],
            ["ingest", "--out", str(tmp_path / "ingest")],
            ["coverage", "--out", str(tmp_path / "coverage")],
            ["report", "--scenario-ratio", "abc"],  # a usage error
            ["scenario", "--out", str(tmp_path / "scenario")],  # no ratio: a config error
        ]
        assert _fresh_main_loads(commands, "numpy") == [
            (None, False), (0, False), (0, False), (0, False), (0, False), (2, False), (1, False)
        ]

    @pytest.mark.parametrize("command", EVERY_SUBCOMMAND, ids=lambda command: command[0])
    def test_subcommand_loads_no_numpy_or_scipy(self, tmp_path, command):
        # Importing any numpy or scipy module loads its top-level package.
        steps = _fresh_main_loads([[*command, "--out", str(tmp_path / "out")]], "numpy", "scipy")
        assert steps == [(None, False), (0, False)]


class TestProcessEntry:
    """main() leaves the collector as it finds it; the process entry freezes
    the heap once main() returns, so the shutdown collections skip it."""

    def test_main_freezes_nothing(self, tmp_path, capsys):
        assert main(["bridge", "--out", str(tmp_path / "out")]) == 0
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    def test_python_m_is_main_then_a_freeze(self, tmp_path, capsys):
        # a sitecustomize on PYTHONPATH reports, at exit, whether the heap was frozen
        (tmp_path / "sitecustomize.py").write_text(
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "MLCA_TRENDS_CONFIG"}
        env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), str(_SRC)])
        out = str(tmp_path / "out")
        for args in (["bridge", "--out", out], ["scenario", "--out", out], ["--version"],
                     ["report", "--scenario-ratio", "abc"]):
            result = subprocess.run([sys.executable, "-m", "mlca_trends.cli", *args], env=env,
                                    capture_output=True, text=True, timeout=120)
            try:
                code = main(args)
            except SystemExit as exc:  # --version and usage errors
                code = exc.code
            assert (result.returncode, result.stdout) == (code, capsys.readouterr().out)
            assert result.stderr.endswith("frozen True\n"), result.stderr


class TestWarnings:
    def test_ratio_above_explored_range_is_one_warning_line(self, tmp_path, capsys):
        code = main(["scenario", "--scenario-ratio", "0.3", "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning [lca]: reduction ratio 0.3 exceeds the explored range (0.25/year)"
        ]

    def test_warning_raised_as_an_error_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "a" / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as `python -W error` does
            code = main(["scenario", "--scenario-ratio", "0.3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error [lca]: reduction ratio 0.3 exceeds the explored range (0.25/year)"
        ]
        assert not (tmp_path / "a").exists()

    def test_past_5000_clean_bridge_pairs_is_one_warning_line(self, tmp_path, capsys):
        n = 5050
        rng = np.random.default_rng(11)
        flop = 10.0 ** rng.uniform(19.0, 24.0, n)
        hours = flop / 1e17 * np.exp(rng.uniform(-1.0, 1.0, n))  # no log-ratio 3 MADs out
        table = tmp_path / "systems.csv"
        table.write_text(
            "name,publication_date,training_flop,hardware_names,hardware_quantity,"
            "training_hours,countries,confidence,finetuned\n" + "".join(
                f"s{i},{2015 + i % 9}-06-01,{f:.6g},Tesla T4,8,{h:.6g},USA,confident,false\n"
                for i, (f, h) in enumerate(zip(flop, hours))
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["report", "--systems", str(table), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning [stats]: Shapiro-Wilk p-value may be inaccurate above 5000 values, got {n}"
        ]
        bridge = json.loads((out / "bridge.json").read_text(encoding="utf-8"))
        assert bridge["counts"] == {"pairs": n, "clean": n, "anomalous": 0}
        assert 0.0 <= bridge["diagnostics"]["shapiro_wilk"][1] <= 1.0


class TestScenarioCompare:
    def test_zero_ratio_series_identical(self, tmp_path):
        pair = Run(RunConfig(out=tmp_path / "out", scenario_ratio=0.0)).scenario
        real, scen = (
            {n: (v, inc) for n, (_, v), inc in zip(s.labels, s.points, s.included)} for s in pair
        )
        assert len(real) == len(scen) > 0
        for name, (value, included) in real.items():
            assert scen[name] == (value, included)
        assert pair[0].n_excluded == pair[1].n_excluded

    def test_reduction_lowers_footprints(self, tmp_path):
        pair = Run(RunConfig(out=tmp_path / "out", scenario_ratio=0.25)).scenario
        by_series = {s.name: dict(zip(s.labels, s.points)) for s in pair}
        assert by_series["real"].keys() == by_series["scenario"].keys()
        for name, (date, value) in by_series["real"].items():
            reduced = by_series["scenario"][name][1]
            assert reduced <= value + 1e-9
            if date.year > 2019:
                assert reduced < value  # usage share shrinks, embodied stays


def _write_table(path: Path, header: list[str], rows: list[list]) -> Path:
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([header, *rows])
    return path


def _rows_by_series(path: Path) -> dict[str, list[dict]]:
    by_series = {}
    with path.open(newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            by_series.setdefault(row["series"], []).append(row)
    return by_series


class TestSeriesLayouts:
    """Layout cases the bundled data never reaches: a series without a fit,
    a non-positive value, and a zero footprint at a zero GWP floor."""

    def test_unfitted_series_and_non_positive_values(self, tmp_path):
        cards = _write_table(tmp_path / "cards.csv", CARD_COLUMNS, [
            # only Edge A and Edge D list a process node; Edge C has no memory
            ["Edge A", "NVIDIA", "2016-01-01", 100, 16, 8, "GDDR5", 150, "", 1e13, "", ""],
            ["Edge B", "NVIDIA", "2017-01-01", 200, "", 16, "GDDR5", 200, "", 2e13, "", ""],
            ["Edge C", "NVIDIA", "2018-01-01", 300, "", 0, "GDDR5", 250, "", 3e13, "", ""],
            ["Edge D", "NVIDIA", "2019-01-01", 400, 7, 32, "HBM2", 300, "", 4e13, "", ""],
        ])

        def system(name, date, quantity, hours, country):
            values = {"name": name, "publication_date": date, "hardware_names": "Edge A",
                      "hardware_quantity": quantity, "training_hours": hours,
                      "countries": country, "confidence": "confident", "finetuned": "false"}
            return [values.get(column, "") for column in SYSTEM_COLUMNS]

        base = RunConfig(cards=cards, cards_extra=None, scenario_ratio=0.1)

        # Two large runs above the default 50 kg floor and two tiny ones below it
        systems = _write_table(tmp_path / "systems_a.csv", SYSTEM_COLUMNS, [
            system("Big 1", "2020-03-01", 100, 10000, "USA"),
            system("Big 2", "2021-03-01", 100, 10000, "USA"),
            system("Tiny 1", "2021-06-01", 1, 1, "USA"),
            system("Tiny 2", "2022-03-01", 1, 1, "USA"),
        ])
        run_pipeline(base._replace(out=tmp_path / "a", systems=systems))
        trends = _rows_by_series(tmp_path / "a" / "trends.csv")
        assert [r["kind"] for r in trends["card_process_node"]] == ["point", "point"]
        assert trends["card_memory_size"][-1]["kind"] == "trend"
        assert trends["card_memory_size"][-1]["n_excluded"] == "1"
        scenario = _rows_by_series(tmp_path / "a" / "scenario_0.1.csv")
        for name in ("real", "scenario"):
            *points, trend = scenario[name]
            assert [r["included"] for r in points] == ["true", "true", "false", "false"]
            assert trend["kind"] == "trend"
            fit_columns = SCENARIO_HEADER[6:-1]
            assert [trend[column] for column in fit_columns] == [""] * len(fit_columns)
            assert trend["n_excluded_floor"] == "2"

        # Zero production factors, and a 0 g/kWh mix for one of four systems
        factors = tmp_path / "zero_factors.json"
        factors.write_text(json.dumps({
            key: {"gwp_kg": 0, "adpe_kgsb": 0}
            for key in ("logic_per_cm2", "memory_per_gb", "board_base", "cpu_production")
        }), encoding="utf-8")
        mixes = _write_table(
            tmp_path / "mixes.csv",
            ["country", "carbon_intensity_g_per_kwh", "adpe_kgsb_per_kwh"],
            [["WLD", 475, 1.2e-8], ["USA", 380, 1.1e-8], ["ZZZ", 0, 0]],
        )
        systems = _write_table(tmp_path / "systems_b.csv", SYSTEM_COLUMNS, [
            system("Big 1", "2020-03-01", 100, 10000, "USA"),
            system("Big 2", "2021-03-01", 100, 10000, "USA"),
            system("Big 3", "2022-03-01", 100, 10000, "USA"),
            system("Clean", "2022-06-01", 100, 10000, "ZZZ"),
        ])
        run_pipeline(base._replace(out=tmp_path / "b", systems=systems,
                                   factors=factors, mixes=mixes, gwp_floor=0.0))
        scenario = _rows_by_series(tmp_path / "b" / "scenario_0.1.csv")
        for name in ("real", "scenario"):
            *points, trend = scenario[name]
            clean = next(r for r in points if r["system"] == "Clean")
            assert (float(clean["gwp_kg"]), clean["included"]) == (0.0, "true")
            assert (trend["n_used"], trend["n_excluded_floor"]) == ("3", "0")


class TestTrendStage:
    """The series of trend_stage: their date order, the records each one
    leaves out, and the order of records that share a date."""

    factors = load_impact_factors(default_data_path("impact_factors.json"))

    def _points(self, cards):
        return {s.name: s.points for s in pipeline.trend_stage(cards, self.factors, [], [])}

    def test_card_points_in_date_order(self):
        cards = [
            make_card("C", release_date=dt.date(2022, 1, 1), memory_gb=32.0),
            make_card("A", release_date=dt.date(2020, 1, 1), memory_gb=8.0),
            make_card("B", release_date=dt.date(2021, 1, 1), memory_gb=16.0),
        ]
        assert self._points(cards)["card_memory_size"] == [
            (dt.date(2020, 1, 1), 8.0),
            (dt.date(2021, 1, 1), 16.0),
            (dt.date(2022, 1, 1), 32.0),
        ]

    def test_cards_missing_a_field_leave_its_series(self):
        points = self._points([make_card("A"), make_card("B", die_area_mm2=None)])
        assert len(points["card_die_area"]) == 1
        assert len(points["card_production_gwp_kg"]) == 1  # no die area, no production impact
        assert len(points["card_memory_size"]) == 2

    def test_same_date_cards(self):
        """Characteristics follow the normalized names, production impacts the
        names as given: the two orders differ for these three cards."""
        cards = [make_card(name, release_date=dt.date(2018, 3, 27), die_area_mm2=area)
                 for name, area in (("Tesla V100", 815.0), ("TITAN V", 800.0),
                                    ("Quadro GV100", 810.0))]
        points = self._points(cards)
        assert [v for _, v in points["card_die_area"]] == [810.0, 815.0, 800.0]
        by_name = {c.name: production_impact(c, self.factors).gwp_kg for c in cards}
        assert [v for _, v in points["card_production_gwp_kg"]] == [
            by_name[name] for name in ("Quadro GV100", "TITAN V", "Tesla V100")]

    def test_same_date_systems_and_impacts_in_name_order(self):
        """Systems and impacts of one date follow their names; a system
        without a hardware quantity has no hardware_quantity point."""
        day, later = dt.date(2021, 5, 1), dt.date(2022, 1, 1)
        systems = [SystemRecord(name, date, hardware_quantity=quantity)
                   for name, date, quantity in (("Zeta", day, 3), ("Late", later, 4),
                                                ("Alpha", day, 1), ("Mid", day, None),
                                                ("Beta", day, 2))]
        impacts = [SystemImpact(s.name, s.publication_date,
                                *[EstimateInterval.degenerate(float(i))] * 3, None, "direct", None)
                   for i, s in enumerate(systems, 1)]
        points = {s.name: s.points
                  for s in pipeline.trend_stage([], self.factors, systems, impacts)}
        assert points["hardware_quantity"] == [(day, 1.0), (day, 2.0), (day, 3.0), (later, 4.0)]
        assert points["system_gwp_kg"] == [(day, 3.0), (day, 5.0), (day, 4.0), (day, 1.0),
                                           (later, 2.0)]


def _zero_floor_config(tmp_path: Path) -> RunConfig:
    """TestSeriesLayouts' zero-footprint case: zero production factors, a
    0 g/kWh mix for one of four systems, a card table of four, and a GWP
    floor of 0."""
    cards = _write_table(tmp_path / "cards.csv", CARD_COLUMNS, [
        ["Edge A", "NVIDIA", "2016-01-01", 100, 16, 8, "GDDR5", 150, "", 1e13, "", ""],
        ["Edge B", "NVIDIA", "2017-01-01", 200, "", 16, "GDDR5", 200, "", 2e13, "", ""],
        ["Edge C", "NVIDIA", "2018-01-01", 300, "", 0, "GDDR5", 250, "", 3e13, "", ""],
        ["Edge D", "NVIDIA", "2019-01-01", 400, 7, 32, "HBM2", 300, "", 4e13, "", ""],
    ])
    factors = tmp_path / "zero_factors.json"
    factors.write_text(json.dumps({
        key: {"gwp_kg": 0, "adpe_kgsb": 0}
        for key in ("logic_per_cm2", "memory_per_gb", "board_base", "cpu_production")
    }), encoding="utf-8")
    mixes = _write_table(tmp_path / "mixes.csv",
                         ["country", "carbon_intensity_g_per_kwh", "adpe_kgsb_per_kwh"],
                         [["WLD", 475, 1.2e-8], ["USA", 380, 1.1e-8], ["ZZZ", 0, 0]])
    systems = _write_table(tmp_path / "systems.csv", SYSTEM_COLUMNS, [
        [name, date, "", "Edge A", 100, 10000, country, "confident", "false"]
        for name, date, country in (("Big 1", "2020-03-01", "USA"), ("Big 2", "2021-03-01", "USA"),
                                    ("Big 3", "2022-03-01", "USA"), ("Clean", "2022-06-01", "ZZZ"))
    ])
    return RunConfig(cards=cards, cards_extra=None, systems=systems, factors=factors,
                     mixes=mixes, scenario_ratio=0.1, gwp_floor=0.0)


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


# Tables whose number cells are str() of the parsed input, not format_cell:
# they round-trip to the same cards and records
_STR_CELL_TABLES = {"catalog.csv", "systems_normalized.csv"}


@pytest.mark.parametrize("case", ["bundled", "zero-floor"])
def test_no_float_cell_reaches_the_csv_writer(tmp_path, case):
    """Every CSV row builder hands the writer finished lines of the header's
    width, and formats each float cell with format_cell (12 significant
    digits, so 0.0 is written 0): a raw float in a line's f-string would
    show its repr instead."""
    config = (RunConfig(scenario_ratio=0.1) if case == "bundled"
              else _zero_floor_config(tmp_path))
    run = Run(config)
    csv_outputs = {name: (header, list(content(run)))
                   for name, (_, _, header, content) in OUTPUTS.items() if header is not None}
    assert all(lines for _, lines in csv_outputs.values())  # every builder made rows to check
    unfinished = [(name, line) for name, (header, lines) in csv_outputs.items() for line in lines
                  if not isinstance(line, str) or len(next(csv.reader([line]))) != len(header)]
    assert unfinished == []
    unformatted = []
    for name, (_, lines) in csv_outputs.items():
        if name in _STR_CELL_TABLES:
            continue
        for cells in csv.reader(lines):
            pct = name == "coverage.csv" and cells[0] == "coverage_pct"  # written to one decimal
            unformatted += [(name, cell) for cell in cells if _parses_as_float(cell) and cell != (
                f"{float(cell):.1f}" if pct else format_cell(float(cell)))]
    assert unformatted == []


def test_free_text_names_read_back_exactly(tmp_path, capsys):
    """System names holding a comma, a double quote, doubled quotes or a line
    end are quoted in every table that shows them, so csv.reader reads each
    name back as it was given."""
    names = ["Model, large", 'The "Big" one', 'Say ""hi""', "Two\nlines", "Three\rlines",
             "Four\r\nlines"]
    with default_data_path("systems_sample.csv").open(newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    rows += [[name, "2022-06-01", "", "A100", 8, 100, "USA", "confident", "false"]
             for name in names]
    systems = _write_table(tmp_path / "systems.csv", header, rows)
    out = tmp_path / "out"
    assert main(["report", "--scenario-ratio", "0.1", "--systems", str(systems),
                 "--out", str(out)]) == 0
    assert main(["ingest", "--systems", str(systems), "--out", str(tmp_path / "ingest")]) == 0
    capsys.readouterr()
    for path, copies in [(out / "estimates.csv", 1), (out / "impacts.csv", 1),
                         (out / "scenario_0.1.csv", 2),  # a real and a scenario point
                         (tmp_path / "ingest" / "systems_normalized.csv", 1)]:
        with path.open(newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        assert all(len(row) == len(header) for row in rows), path.name
        read = [row[header.index("name" if "name" in header else "system")] for row in rows]
        assert [read.count(name) for name in names] == [copies] * len(names), path.name


class TestCliCommands:
    def test_report_exit_zero_and_six_files(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path / "out")])
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(REPORT_FILES)
        summary = json.loads(capsys.readouterr().out)
        assert summary["output_files"] == REPORT_FILES

    def test_missing_mix_table_nonzero_exit_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope" / "mixes.csv"
        code = main(["report", "--out", str(tmp_path / "out"), "--mixes", str(missing)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error [lca]" in err and str(missing) in err

    def test_missing_systems_table_nonzero_exit(self, tmp_path, capsys):
        code = main(
            ["report", "--out", str(tmp_path / "out"), "--systems", str(tmp_path / "ghost.csv")]
        )
        assert code == 1
        assert "error [systems]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, stage, what", [("--cards", "catalog", "card table"),
                                                   ("--systems", "systems", "systems table")])
    def test_an_empty_input_path_is_named_not_read_as_the_working_directory(
        self, tmp_path, capsys, flag, stage, what
    ):
        assert main(["ingest", flag, "", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f'error [{stage}]: {what} not found: "" (an empty path)\n'
        assert not (tmp_path / "out").exists()

    def test_coverage_command(self, tmp_path, capsys):
        code = main(["coverage", "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "coverage.csv").is_file()
        assert (tmp_path / "out" / "coverage.json").is_file()
        payload = json.loads((tmp_path / "out" / "coverage.json").read_text())
        assert payload["number"]["systems"] == 17

    def test_ingest_command(self, tmp_path, capsys):
        code = main(["ingest", "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "catalog.csv").is_file()
        assert (tmp_path / "out" / "merge_report.json").is_file()
        # normalized systems table is reusable as a --systems input
        normalized = tmp_path / "out" / "systems_normalized.csv"
        assert normalized.is_file()
        code = main(
            ["report", "--systems", str(normalized), "--out", str(tmp_path / "again")]
        )
        assert code == 0

    def test_bridge_unavailable_falls_back_to_raw_flop(self, tmp_path):
        # flop-only systems: no pairs to calibrate on, so apply_bridge=true
        # degrades to raw flop estimates and provenance records it
        systems = tmp_path / "systems.csv"
        systems.write_text(
            "name,publication_date,training_flop,hardware_names,hardware_quantity,"
            "training_hours,countries,confidence,finetuned\n"
            "OnlyFlopA,2021-01-01,1e22,Tesla T4,,,USA,unknown,false\n"
            "OnlyFlopB,2022-01-01,2e22,L40,,,USA,unknown,false\n",
            encoding="utf-8",
        )
        summary = run_pipeline(
            RunConfig(out=tmp_path / "out", systems=systems, apply_bridge=True)
        )
        assert summary.provenance["apply_bridge"] is True
        assert summary.provenance["bridge_applied"] is False
        with (tmp_path / "out" / "estimates.csv").open(newline="") as handle:
            methods = {row["method"] for row in csv.DictReader(handle)}
        assert methods == {"flop_based"}
        payload = json.loads((tmp_path / "out" / "bridge.json").read_text())
        assert payload["model"] is None and payload["counts"]["pairs"] == 0

    def test_bridge_without_spread_falls_back_to_raw_flop(self, tmp_path):
        # four clean pairs with equal hours leave the bridge nothing to fit
        systems = tmp_path / "systems.csv"
        systems.write_text(
            SYSTEMS_HEADER
            + "".join(f"Same{i},2021-01-01,1e21,A100,8,100,USA,unknown,false\n" for i in range(4))
            + "OnlyFlop,2022-01-01,2e22,A100,,,USA,unknown,false\n",
            encoding="utf-8",
        )
        summary = run_pipeline(RunConfig(out=tmp_path / "out", systems=systems))
        assert summary.provenance["bridge_applied"] is False
        payload = json.loads((tmp_path / "out" / "bridge.json").read_text())
        assert payload["model"] is None and payload["counts"]["clean"] == 4
        with (tmp_path / "out" / "estimates.csv").open(newline="") as handle:
            methods = {row["system"]: row["method"] for row in csv.DictReader(handle)}
        assert methods["OnlyFlop"] == "flop_based"

    def test_estimate_command_writes_only_estimates(self, tmp_path):
        code = main(["estimate", "--out", str(tmp_path / "out")])
        assert code == 0
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["estimates.csv"]

    def test_apply_bridge_false_yields_raw_flop_method(self, tmp_path):
        main(["estimate", "--out", str(tmp_path / "out"), "--apply-bridge", "false"])
        with (tmp_path / "out" / "estimates.csv").open(newline="") as handle:
            methods = {row["method"] for row in csv.DictReader(handle)}
        assert "flop_based" in methods and "flop_based_bridged" not in methods

    def test_scenario_command(self, tmp_path, capsys):
        code = main(
            ["scenario", "--out", str(tmp_path / "out"), "--scenario-ratio", "0.25"]
        )
        assert code == 0
        assert (tmp_path / "out" / "scenario_0.25.csv").is_file()
        payload = json.loads(capsys.readouterr().out)
        assert payload["excluded_scenario"] >= payload["excluded_real"]

    def test_scenario_requires_ratio(self, tmp_path, capsys):
        code = main(["scenario", "--out", str(tmp_path / "a" / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "scenario-ratio" in err
        assert err.splitlines() == ["error [config]: scenario requires --scenario-ratio"]
        assert not (tmp_path / "a").exists()

    def test_missing_override_table_without_cards_alt_is_a_catalog_error(self, tmp_path, capsys):
        missing, out = tmp_path / "nonexistent.csv", tmp_path / "out"
        assert main(["ingest", "--overrides", str(missing), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error [catalog]: override table not found: {missing}"]
        assert not out.exists()

    def test_overrides_apply_to_the_primary_table_alone(self, tmp_path, capsys):
        overrides = _write_table(tmp_path / "overrides.csv", ["name", "field", "value"],
                                 [["Tesla K40", "tdp", "300"]])

        def k40_tdp(out, *flags):
            assert main(["ingest", "--out", str(out), *flags]) == 0
            with (out / "catalog.csv").open(newline="", encoding="utf-8") as handle:
                return next(float(r["tdp_w"]) for r in csv.DictReader(handle)
                            if r["name"] == "Tesla K40")

        assert k40_tdp(tmp_path / "plain") == 235
        assert k40_tdp(tmp_path / "overridden", "--overrides", str(overrides)) == 300

    def test_duplicate_card_names_in_a_lone_primary_table_are_a_catalog_error(
        self, tmp_path, capsys
    ):
        cards = tmp_path / "cards.csv"
        cards.write_bytes(_bundled("cards_nvidia_workstation.csv")
                          + b"NVIDIA Tesla K40,NVIDIA,2013-10-08,561,28,12,GDDR5,235,,5e12,,\n")
        assert main(["ingest", "--cards", str(cards), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [catalog]: duplicate card name")

    def test_empty_flag_or_null_config_value_turns_the_extra_cards_off(
        self, tmp_path, monkeypatch, capsys
    ):
        def ingest_counts(*flags):
            args = _build_parser().parse_args(["ingest", "--out", str(tmp_path / "out"), *flags])
            counts = run_pipeline(_config_from_args(args), "ingest").counts
            return counts["cards_total"], counts["cards_workstation"]

        monkeypatch.delenv("MLCA_TRENDS_CONFIG", raising=False)
        total, workstation = ingest_counts()
        assert total > workstation
        assert ingest_counts("--cards-extra", "") == (workstation, workstation)
        env_file = tmp_path / "config.json"
        env_file.write_text(json.dumps({"cards_extra": None}), encoding="utf-8")
        monkeypatch.setenv("MLCA_TRENDS_CONFIG", str(env_file))
        assert ingest_counts() == (workstation, workstation)
        assert ingest_counts(f"--cards-extra={default_data_path('cards_other.csv')}") == (
            total, workstation
        )
        # a required table cannot be unset
        assert main(["ingest", "--cards", "", "--out", str(tmp_path / "cards")]) == 1
        assert capsys.readouterr().err.startswith("error [catalog]: ")

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_an_empty_out_is_a_config_error_that_writes_nothing(
        self, tmp_path, monkeypatch, capsys, source
    ):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.delenv("MLCA_TRENDS_CONFIG", raising=False)
        if source == "env":
            env_file = tmp_path / "config.json"
            env_file.write_text(json.dumps({"out": ""}), encoding="utf-8")
            monkeypatch.setenv("MLCA_TRENDS_CONFIG", str(env_file))
        assert main(["ingest", *(["--out", ""] if source == "flag" else [])]) == 1
        assert capsys.readouterr().err.splitlines() == [
            'error [config]: out must not be empty; give "." for the working directory'
        ]
        assert list(cwd.iterdir()) == []
        if source == "env":  # a flag overrides the config file's empty out
            assert main(["ingest", "--out", str(tmp_path / "flagged")]) == 0
            assert list(cwd.iterdir()) == [] and (tmp_path / "flagged" / "catalog.csv").is_file()
        monkeypatch.delenv("MLCA_TRENDS_CONFIG", raising=False)
        assert main(["ingest", "--out", "."]) == 0  # the working directory, said so
        assert sorted(p.name for p in cwd.iterdir()) == [
            "catalog.csv", "merge_report.json", "systems_normalized.csv"
        ]

    def test_a_library_callers_empty_out_is_the_same_config_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError) as raised:
            run_pipeline(RunConfig(out=""), "ingest")
        assert str(raised.value) == 'out must not be empty; give "." for the working directory'
        assert list(tmp_path.iterdir()) == []

    def test_env_var_bundles_paths(self, tmp_path, monkeypatch, capsys):
        bundle = {
            "systems": str(default_data_path("systems_sample.csv")),
            "out": str(tmp_path / "env_out"),
        }
        env_file = tmp_path / "config.json"
        env_file.write_text(json.dumps(bundle), encoding="utf-8")
        monkeypatch.setenv("MLCA_TRENDS_CONFIG", str(env_file))
        code = main(["report"])
        assert code == 0
        assert (tmp_path / "env_out" / "impacts.csv").is_file()

    def test_env_var_missing_file_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MLCA_TRENDS_CONFIG", str(tmp_path / "ghost.json"))
        code = main(["report"])
        assert code == 1
        assert "error [config]" in capsys.readouterr().err

    @pytest.mark.parametrize("field", RunConfig._fields)
    def test_each_run_setting_is_a_flag_and_an_env_key(self, tmp_path, monkeypatch, field):
        default = getattr(RunConfig(), field)
        # field type -> ((flag text, its value), (MLCA_TRENDS_CONFIG value, its value))
        (flag_text, flag_value), (env_json, env_value) = {
            "Path": (("flag.csv", Path("flag.csv")), ("env.csv", Path("env.csv"))),
            "float": (("0.2", 0.2), (0.1, 0.1)),
            "bool": ((str(default).lower(), default), (not default, not default)),
        }[RunConfig.FIELD_TYPES[field].removesuffix(" | None")]
        assert env_value not in (default, flag_value)

        def setting(*flags):
            return getattr(_config_from_args(_build_parser().parse_args(["report", *flags])),
                           field)

        flag = f"--{field.replace('_', '-')}={flag_text}"
        monkeypatch.delenv("MLCA_TRENDS_CONFIG", raising=False)
        assert (setting(), setting(flag)) == (default, flag_value)
        env_file = tmp_path / "config.json"
        env_file.write_text(json.dumps({field: env_json}), encoding="utf-8")
        monkeypatch.setenv("MLCA_TRENDS_CONFIG", str(env_file))
        assert (setting(), setting(flag)) == (env_value, flag_value)

    def test_seed_is_no_flag(self, tmp_path):
        with pytest.raises(SystemExit) as usage_error:
            main(["report", "--seed", "1", "--out", str(tmp_path / "out")])
        assert usage_error.value.code == 2
        assert not (tmp_path / "out").exists()


SYSTEMS_HEADER = (
    "name,publication_date,training_flop,hardware_names,hardware_quantity,"
    "training_hours,countries,confidence,finetuned\n"
)


@pytest.fixture(scope="module")
def scenario_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "out"
    assert main(["report", "--out", str(out), "--scenario-ratio", "0.25"]) == 0
    return out


_CARD_INPUTS = ["--cards", "--cards-alt", "--cards-extra", "--overrides"]
_LCA_INPUTS = ["--mixes", "--factors", "--constants", "--server-profiles"]
# Subcommand -> the inputs it does not read, each of which may be malformed
_UNREAD_INPUTS = {
    "ingest": [*_LCA_INPUTS, "--plausibility"],
    "coverage": [*_CARD_INPUTS, *_LCA_INPUTS, "--plausibility"],
    "bridge": _LCA_INPUTS,
    "estimate": _LCA_INPUTS,
}
# A malformed copy of each CSV input by its flag; of a JSON one, b"{"
_MALFORMED_COPY = {"--mixes": b"country,ci,adpe\n", **dict.fromkeys(_CARD_INPUTS, b"name,tdp\n")}


class TestStageSubcommands:
    @pytest.mark.parametrize(
        "command, files",
        [
            ("bridge", ["bridge.json"]),
            ("estimate", ["estimates.csv"]),
            ("impacts", ["impacts.csv", "embodied_shares.csv"]),
            ("trends", ["trends.csv"]),
            ("scenario", ["scenario_0.25.csv"]),
            ("coverage", ["coverage.csv", "coverage.json"]),
        ],
    )
    def test_files_equal_the_reports(self, tmp_path, capsys, scenario_report, command, files):
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--scenario-ratio", "0.25"]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
        for name in files:
            if name != "coverage.json":  # the report does not write it
                assert (out / name).read_bytes() == (scenario_report / name).read_bytes()

    def test_bridge_and_estimate_skip_impacts_and_trends(self, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("stage not needed by this subcommand")

        monkeypatch.setattr("mlca_trends.pipeline.impact_stage", must_not_run)
        monkeypatch.setattr("mlca_trends.pipeline.trend_stage", must_not_run)
        capsys.readouterr()
        assert main(["bridge", "--out", str(tmp_path / "bridge")]) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert "bridge_pairs" in counts and "estimates" not in counts
        assert main(["estimate", "--out", str(tmp_path / "estimate")]) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert "estimates" in counts and "impacts" not in counts

    def test_coverage_reads_neither_the_cards_nor_the_impact_tables(
        self, tmp_path, monkeypatch, capsys
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("input not read by this subcommand")

        for name in ("parse_card_table", "merge_catalogs", "load_mix_table", "load_impact_factors",
                     "load_constants", "load_server_profiles", "load_plausibility"):
            monkeypatch.setattr(f"mlca_trends.pipeline.{name}", must_not_run)
        assert main(["coverage", "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", list(_UNREAD_INPUTS))
    def test_a_malformed_input_the_subcommand_does_not_read_changes_nothing(
        self, tmp_path, capsys, command
    ):
        assert main([command, "--out", str(tmp_path / "bundled")]) == 0
        flags = []
        for flag in _UNREAD_INPUTS[command]:
            path = tmp_path / flag[2:]
            path.write_bytes(_MALFORMED_COPY.get(flag, b"{"))
            flags += [flag, str(path)]
        assert main([command, "--out", str(tmp_path / "out"), *flags]) == 0
        assert read_all(tmp_path / "out") == read_all(tmp_path / "bundled")

    def test_scenario_report_runs_one_impact_pass(self, tmp_path, monkeypatch, capsys):
        import mlca_trends.pipeline as pipeline

        calls = []
        original = pipeline.impact_stage

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "impact_stage", counted)
        assert main(["report", "--out", str(tmp_path / "out"), "--scenario-ratio", "0.1"]) == 0
        assert len(calls) == 1

    def test_each_hardware_string_resolved_once(self, tmp_path, monkeypatch, capsys):
        import mlca_trends.pipeline as pipeline

        systems = tmp_path / "systems.csv"
        systems.write_text(
            SYSTEMS_HEADER
            + "".join(
                f"S{i},2021-0{i + 1}-01,1e21,{hardware},8,{100 + 50 * i},USA,unknown,false\n"
                for i, hardware in enumerate(
                    ["A100", "V100", "A100", "Custom ASIC 9000", "A100", "Custom ASIC 9000"]
                )
            ),
            encoding="utf-8",
        )
        queries = []
        original = pipeline.resolve_card_reference

        def counted(query, *args, **kwargs):
            queries.append(query)
            return original(query, *args, **kwargs)

        monkeypatch.setattr(pipeline, "resolve_card_reference", counted)
        assert main(["report", "--systems", str(systems), "--out", str(tmp_path / "out")]) == 0
        assert sorted(queries) == ["A100", "Custom ASIC 9000", "V100"]
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert counts["estimates"] == 6  # the unresolved ones keep their direct estimate


def _bundled(name: str) -> bytes:
    return default_data_path(name).read_bytes()


_NOT_UTF8 = b"\xff\xfe\n"
_WIKI = ["--cards-alt", str(default_data_path("cards_wiki.csv"))]
_FACTORS = json.loads(_bundled("impact_factors.json"))

# (stage, flag naming the file, its bytes, further flags); the flag None
# names the file in MLCA_TRENDS_CONFIG instead
_MALFORMED_INPUTS = {
    "plausibility-json": ("catalog", "--plausibility", b"{", []),
    "column-map-json": ("systems", "--column-map", b"{", []),
    "factors-json": ("lca", "--factors", b"{", []),
    "constants-json": ("lca", "--constants", b"{", []),
    "server-profiles-json": ("lca", "--server-profiles", b"{", []),
    "plausibility-json-too-deep": ("catalog", "--plausibility", b"[" * 100_000, []),
    **{
        f"{flag[2:]}-not-utf8": (stage, flag, _bundled(name) + _NOT_UTF8, extra)
        for stage, flag, name, extra in [
            ("catalog", "--cards", "cards_nvidia_workstation.csv", []),
            ("catalog", "--cards-alt", "cards_wiki.csv", []),
            ("catalog", "--cards-extra", "cards_other.csv", []),
            ("catalog", "--overrides", "overrides.csv", _WIKI),
            ("systems", "--systems", "systems_sample.csv", []),
            ("lca", "--mixes", "electricity_mixes.csv", []),
            ("catalog", "--plausibility", "plausibility.json", []),
            ("systems", "--column-map", "plausibility.json", []),
            ("lca", "--factors", "impact_factors.json", []),
            ("lca", "--constants", "lca_constants.json", []),
            ("lca", "--server-profiles", "server_profiles.json", []),
        ]
    },
    "env-config-not-utf8": ("config", None, b'{"gwp_floor": 1}' + _NOT_UTF8, []),
    "systems-bom-not-utf8": (
        "systems", "--systems", codecs.BOM_UTF8 + _bundled("systems_sample.csv") + _NOT_UTF8, []
    ),
    "systems-huge-cell": (
        "systems", "--systems", (SYSTEMS_HEADER + "Big," + "x" * 200_000 + "\n").encode(), []
    ),
    "constants-entry-without-value": ("lca", "--constants", b'{"pue": {"v": 1}}', []),
    "constants-not-a-number": ("lca", "--constants", b'{"pue": "abc"}', []),
    "constants-nan": ("lca", "--constants", b'{"pue": NaN}', []),
    "constants-boolean": ("lca", "--constants", b'{"pue": true}', []),
    # each value is valid, but their product, the amortizable hours, rounds to 0
    "constants-subnormal-lifespan": ("lca", "--constants", b'{"lifespan_hours": 5e-324}', []),
    "server-count-boolean": (
        "lca", "--server-profiles",
        b'{"default": {"gpus_per_server": true, "cpus_per_server": 2, "cpu_tdp_w": 150}}',
        [],
    ),
    "server-rule-without-match": (
        "lca", "--server-profiles",
        b'{"default": {"gpus_per_server": 4, "cpus_per_server": 2, "cpu_tdp_w": 150},'
        b' "rules": [{"gpus_per_server": 2, "cpus_per_server": 2, "cpu_tdp_w": 150}]}',
        [],
    ),
    "column-map-list": ("systems", "--column-map", b'["name"]', []),
    "column-map-list-value": ("systems", "--column-map", b'{"Model": ["name"]}', []),
    "factor-entry-list": (
        "lca", "--factors", json.dumps({**_FACTORS, "board_base": [80.0]}).encode(), []
    ),
    "factors-nan": (
        "lca", "--factors",
        json.dumps({**_FACTORS, "board_base": {**_FACTORS["board_base"], "gwp_kg": math.nan}})
        .encode(),
        [],
    ),
    "override-not-a-number": ("catalog", "--overrides", b"name,field,value\nTesla K40,tdp,abc\n",
                              _WIKI),
    "override-short-row": ("catalog", "--overrides", b"name,field,value\nTesla K40,tdp\n", _WIKI),
    "mix-short-row": ("lca", "--mixes", _bundled("electricity_mixes.csv") + b"XX,300\n", []),
    "mix-nan": ("lca", "--mixes", _bundled("electricity_mixes.csv") + b"XX,nan,1e-8\n", []),
    "mix-wrong-header": ("lca", "--mixes", b"country,ci,adpe\n", []),
    "cards-wrong-header": ("catalog", "--cards", b"name,tdp\n", []),
    "systems-wrong-header": ("systems", "--systems", b"Model,whatever\n", []),
}


class TestInputBoundary:
    def test_non_finite_cells_are_row_errors(self, tmp_path, capsys):
        systems = tmp_path / "systems.csv"
        systems.write_text(
            default_data_path("systems_sample.csv").read_text(encoding="utf-8")
            + "NanFlop,2021-01-01,nan,A100,8,100,USA,unknown,false\n"
            + "InfHours,2021-01-01,1e21,A100,8,inf,USA,unknown,false\n"
            + "InfQuantity,2021-01-01,1e21,A100,inf,100,USA,unknown,false\n",
            encoding="utf-8",
        )
        cards = tmp_path / "cards.csv"
        cards.write_text(
            default_data_path("cards_nvidia_workstation.csv").read_text(encoding="utf-8")
            + "Nan Die,NVIDIA,2020-01-01,nan,7,16,HBM2,250,,1e13,,\n",
            encoding="utf-8",
        )
        code = main(
            ["report", "--systems", str(systems), "--cards", str(cards),
             "--out", str(tmp_path / "out")]
        )
        assert code == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert counts["system_row_errors"] == 3
        assert counts["card_row_errors"] == 1

    def test_an_impact_that_overflows_skips_the_system(self, tmp_path, capsys):
        mixes = tmp_path / "mixes.csv"
        mixes.write_text(
            default_data_path("electricity_mixes.csv").read_text(encoding="utf-8")
            .replace("\nUSA,380,", "\nUSA,1e308,"),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["impacts", "--mixes", str(mixes), "--out", str(out)]) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert counts["impact_skips"] > 0
        assert "inf" not in (out / "impacts.csv").read_text(encoding="utf-8")

    def test_an_embodied_energy_factor_is_ignored(self, tmp_path, capsys):
        # production energy is embedded in the GWP/ADPe factors, so no
        # energy_kwh entry, however large, can skip a system
        factors = json.loads(default_data_path("impact_factors.json").read_text(encoding="utf-8"))
        factors["board_base"]["energy_kwh"] = 1e306
        path = tmp_path / "factors.json"
        path.write_text(json.dumps(factors), encoding="utf-8")
        written = {}
        for name, flags in [("bundled", []), ("energy", ["--factors", str(path)])]:
            assert main(["impacts", *flags, "--out", str(tmp_path / name)]) == 0
            counts = json.loads(capsys.readouterr().out)["counts"]
            assert (counts["impacts"], counts["impact_skips"]) == (15, 0)
            written[name] = read_all(tmp_path / name)
        assert sorted(written["energy"]) == ["embodied_shares.csv", "impacts.csv"]
        assert written["energy"] == written["bundled"]

    @pytest.mark.parametrize(
        "command,row,count,expected",
        [  # the bundled table alone gives estimate_skips 0 and bridge_pairs 10
            ("estimate", "Tiny,2021-01-01,1e-320,A100,,,USA,unknown,false", "estimate_skips", 1),
            ("bridge", "Tiny,2021-01-01,1e-320,A100,8,100,USA,unknown,false", "bridge_pairs", 10),
            ("report", "Huge,2021-01-01,1e21,A100,1e300,1e10,USA,unknown,false",
             "estimate_skips", 1),
        ],
    )
    def test_gpu_hours_outside_the_float_range_skip_the_system(
        self, tmp_path, capsys, command, row, count, expected
    ):
        systems = tmp_path / "systems.csv"
        systems.write_bytes(_bundled("systems_sample.csv") + f"{row}\n".encode())
        out = tmp_path / "out"
        assert main([command, "--systems", str(systems), "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["counts"][count] == expected
        for written in out.iterdir():
            text = written.read_text(encoding="utf-8")
            assert not {"inf", "-inf", "Infinity"} & set(text.replace(",", " ").split()), written

    @pytest.mark.parametrize("command", ["bridge", "report"])
    @pytest.mark.parametrize("row", [
        "Tiny-hours,2021-05-01,1e25,V100,1,1e-320,USA,likely,false",  # quotient 0
        "Huge-hours,2021-05-01,1e-300,V100,1,1e300,USA,likely,false",  # quotient inf
    ], ids=["zero", "inf"])
    def test_a_bridge_quotient_outside_the_float_range_is_a_counted_anomaly(
        self, tmp_path, capsys, command, row
    ):
        systems = tmp_path / "systems.csv"
        systems.write_bytes(_bundled("systems_sample.csv") + f"{row}\n".encode())
        assert main([command, "--systems", str(systems), "--out", str(tmp_path / "out")]) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        # the bundled table alone has 10 pairs, one of them anomalous (fine-tuned)
        assert [counts[f"bridge_{n}"] for n in ("pairs", "clean", "anomalous")] == [11, 9, 2]

    @pytest.mark.parametrize("command", ["report", "trends"])
    def test_a_production_impact_that_overflows_drops_the_card(self, tmp_path, capsys, command):
        factors = json.loads(default_data_path("impact_factors.json").read_text(encoding="utf-8"))
        factors["logic_per_cm2"]["gwp_kg"] = 1e308
        path = tmp_path / "factors.json"
        path.write_text(json.dumps(factors), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--factors", str(path), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        for written in out.iterdir():
            text = written.read_text(encoding="utf-8")
            assert not {"inf", "-inf", "Infinity"} & set(text.replace(",", " ").split()), written
        with (out / "trends.csv").open(encoding="utf-8", newline="") as handle:
            rows = [row for row in csv.DictReader(handle) if row["kind"] == "point"]
        production = [float(r["value"]) for r in rows if r["series"] == "card_production_gwp_kg"]
        dies = [r for r in rows if r["series"] == "card_die_area"]
        assert 0 < len(production) < len(dies)  # the cards whose impact overflows are dropped

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scenario-ratio", "nan"],
            ["--scenario-ratio", "inf"],
            ["--scenario-ratio", "0.1", "--gwp-floor", "-5"],
            ["--scenario-ratio", "0.1", "--gwp-floor", "nan"],
            ["--scenario-ratio", "1.5"],
            ["--scenario-ratio", "2"],
        ],
    )
    def test_bad_scenario_flags_fail_before_writing(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert main(["report", "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [pipeline]")
        assert not out.exists()

    def test_run_config_rejects_an_int_floor_past_the_float_range(self):
        # A library caller's int, which no flag or config file can pass.
        with pytest.raises(PipelineError, match="gwp floor must be a finite number >= 0"):
            RunConfig(gwp_floor=10**400)

    @pytest.mark.parametrize(
        "bundle",
        [
            {"sytems": "systems.csv"},
            {"scenario_ratio": "0.1"},
            {"scenario_ratio": True},
            {"gwp_floor": "50"},
            {"seed": 1},
            {"seed": 1.5},
            {"gwp_floor": False},
            {"gwp_floor": 10**400},
            {"apply_bridge": "yes"},
            {"apply_bridge": 1},
            {"cards": 5},
            {"out": None},
        ],
    )
    def test_env_config_rejects_unknown_keys_and_wrong_types(
        self, tmp_path, monkeypatch, capsys, bundle
    ):
        env_file = tmp_path / "config.json"
        env_file.write_text(json.dumps(bundle), encoding="utf-8")
        monkeypatch.setenv("MLCA_TRENDS_CONFIG", str(env_file))
        assert main(["report", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [config]")
        assert list(bundle)[0] in err[0]

    def test_env_config_typed_values_accepted(self, tmp_path, monkeypatch, capsys):
        env_file = tmp_path / "config.json"
        env_file.write_text(
            json.dumps({"apply_bridge": False, "scenario_ratio": 0.25, "gwp_floor": 10,
                        "out": str(tmp_path / "env_out")}),
            encoding="utf-8",
        )
        monkeypatch.setenv("MLCA_TRENDS_CONFIG", str(env_file))
        assert main(["report"]) == 0
        provenance = json.loads(capsys.readouterr().out)["provenance"]
        assert provenance["apply_bridge"] is False
        assert (provenance["scenario_ratio"], provenance["gwp_floor"]) == (0.25, 10.0)
        assert (tmp_path / "env_out" / "scenario_0.25.csv").is_file()

    @pytest.mark.parametrize("case", list(_MALFORMED_INPUTS))
    def test_ends_in_one_stage_error_naming_the_file(self, tmp_path, monkeypatch, capsys, case):
        stage, flag, content, extra = _MALFORMED_INPUTS[case]
        path = tmp_path / "input"
        path.write_bytes(content)
        out = tmp_path / "out"
        if flag is None:
            monkeypatch.setenv("MLCA_TRENDS_CONFIG", str(path))
        else:
            extra = [*extra, flag, str(path)]
        assert main(["report", "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error [{stage}]") and str(path) in err[0]
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("command", ["ingest", "report"])
    def test_inputs_led_by_a_byte_order_mark_give_the_same_outputs(
        self, tmp_path, capsys, command
    ):
        flags = []
        for flag, name in [("--systems", "systems_sample.csv"),
                           ("--cards", "cards_nvidia_workstation.csv"),
                           ("--cards-extra", "cards_other.csv"),
                           ("--constants", "lca_constants.json")]:
            path = tmp_path / name
            path.write_bytes(codecs.BOM_UTF8 + _bundled(name))
            flags += [flag, str(path)]
        plain, bom = tmp_path / "plain", tmp_path / "bom"
        assert main([command, "--scenario-ratio", "0.1", "--out", str(plain)]) == 0
        assert main([command, "--scenario-ratio", "0.1", "--out", str(bom), *flags]) == 0
        assert capsys.readouterr().err == ""
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in bom.iterdir())
        assert [(plain / n).read_bytes() == (bom / n).read_bytes() for n in names] == [True] * len(
            names
        )

    def test_short_table_rows_are_row_errors(self, tmp_path, capsys):
        systems = tmp_path / "systems.csv"
        systems.write_bytes(_bundled("systems_sample.csv") + b"Short System\n")
        cards = tmp_path / "cards.csv"
        cards.write_bytes(_bundled("cards_nvidia_workstation.csv") + b"Short Card,NVIDIA\n")
        code = main(
            ["report", "--systems", str(systems), "--cards", str(cards),
             "--out", str(tmp_path / "out")]
        )
        assert code == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert (counts["system_row_errors"], counts["card_row_errors"]) == (1, 1)

    def test_a_card_dated_past_the_latest_release_year_is_a_row_error(self, tmp_path, capsys):
        latest = LATEST_RELEASE_YEAR
        cards = tmp_path / "cards.csv"
        cards.write_bytes(_bundled("cards_nvidia_workstation.csv") + (
            f"Late Card,NVIDIA,{latest}-12-31,600,4,80,HBM3,700,,6e13,,\n"
            f"Later Card,NVIDIA,{latest + 1}-01-01,600,4,80,HBM3,700,,6e13,,\n"
        ).encode("utf-8"))
        assert main(["bridge", "--cards", str(cards), "--out", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["counts"]["card_row_errors"] == 1

    def test_failed_run_leaves_no_out_directory(self, tmp_path, capsys):
        header, *rows = _bundled("systems_sample.csv").decode("utf-8").splitlines(keepends=True)
        systems = tmp_path / "systems.csv"
        systems.write_text(
            header + "".join(row for row in rows if row.split(",")[1] < "2019"), encoding="utf-8"
        )
        out = tmp_path / "out"
        code = main(["report", "--systems", str(systems), "--scenario-ratio", "0.1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [pipeline]: no post-2019 systems")
        assert list(tmp_path.iterdir()) == [systems]  # neither out nor its staging directory

    def test_failed_run_removes_the_parents_of_out_it_made(self, tmp_path, capsys, monkeypatch):
        header, *rows = _bundled("systems_sample.csv").decode("utf-8").splitlines(keepends=True)
        systems = tmp_path / "systems.csv"
        systems.write_text(
            header + "".join(row for row in rows if row.split(",")[1] < "2019"), encoding="utf-8"
        )
        (tmp_path / "kept").mkdir()
        monkeypatch.chdir(tmp_path)
        for out in ("f2/a/b/out", "kept/a/out"):
            code = main(["report", "--systems", str(systems), "--scenario-ratio", "0.1",
                         "--out", out])
            assert code == 1
        assert "error [pipeline]: no post-2019 systems" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept", "systems.csv"]
        assert list((tmp_path / "kept").iterdir()) == []

    def test_outputs_join_an_existing_out_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        assert main(["bridge", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["bridge.json", "notes.txt"]
        assert list(tmp_path.iterdir()) == [out]

    def test_out_naming_a_file_is_a_pipeline_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory", encoding="utf-8")
        assert main(["report", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [pipeline]") and str(out) in err[0]


class TestRecords:
    """The records are named tuples: importing and running the CLI generates
    no code, and each record keeps the immutability and checks it had."""

    def test_the_cli_loads_neither_dataclasses_nor_inspect(self, tmp_path):
        commands = [["--help"], *([*command, "--out", str(tmp_path / command[0])]
                                  for command in EVERY_SUBCOMMAND)]
        assert _fresh_main_loads(commands, "dataclasses", "inspect") == [
            (None, False), *[(0, False)] * 9
        ]

    def test_no_field_of_any_record_can_be_assigned(self, tmp_path):
        run = Run(RunConfig(out=tmp_path / "out", scenario_ratio=0.1,
                            cards_alt=default_data_path("cards_wiki.csv"),
                            overrides=default_data_path("overrides.csv")))
        (system, _, estimate), impact = run.estimates[0][0], run.impacts[0][0]
        _, catalog, merge_report, _ = run.cards
        constants = load_constants(default_data_path("lca_constants.json"))
        server_profiles = load_server_profiles(default_data_path("server_profiles.json"))
        series = next(s for s in run.trends if s.fit is not None)
        records = [
            run.config, catalog[0], merge_report, merge_report.divergent[0],
            RowError(2, "bad row"), constants, run.factors, server_profiles,
            server_profiles.default,
            next(ref for ref in run.card_refs.values() if ref is not None), system, run.coverage,
            run.coverage.counts, run.bridge[0], run.bridge[0].fit, estimate, estimate.interval,
            impact, impact.embodied_ref, impact.mix_ref, run.shares[0][0], series, series.fit,
        ]
        modules = [importlib.import_module(f"mlca_trends.{info.name}")
                   for info in pkgutil.iter_modules(mlca_trends.__path__)]
        record_classes = {value for module in modules for value in vars(module).values()
                          if isinstance(value, type) and issubclass(value, tuple)
                          and value.__module__ == module.__name__}
        assert {type(record) for record in records} == record_classes
        assert len(record_classes) == 23
        for record in records:
            for field in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, getattr(record, field))

    # (record class, valid fields, a field and a value it rejects, the error)
    REJECTED = [
        (EstimateInterval, dict(min=1.0, reference=2.0, max=3.0), "reference", 4.0, ValueError),
        (ImpactVector, dict(gwp_kg=1.0, adpe_kgsb=1.0), "adpe_kgsb", -1.0, ValueError),
        (ImpactVector, dict(gwp_kg=1.0, adpe_kgsb=1.0), "gwp_kg", math.nan, ValueError),
        (GpuHoursEstimate, dict(value=1.0, method="direct", interval=EstimateInterval(1, 1, 1),
                                per_card=None), "value", 0.0, ValueError),
        (GpuHoursEstimate, dict(value=1.0, method="direct", interval=EstimateInterval(1, 1, 1),
                                per_card=None), "method", "guess", ValueError),
        *((SystemRecord, dict(name="S", publication_date=dt.date(2020, 1, 1), training_flop=1e20,
                              hardware_names=("A100",), hardware_quantity=8, training_hours=10.0,
                              countries=("USA",), confidence="likely", finetuned=False),
           field, value, ValueError)
          for field, value in [("name", ""), ("training_flop", math.inf),
                               ("hardware_quantity", 0), ("training_hours", -1.0),
                               ("confidence", "sure")]),
        *((CardSpec, make_card()._asdict(), field, value, ValueError)
          for field, value in [("name", ""), ("source", "blog"),
                               ("release_date", dt.date(1980, 1, 1)), ("tdp_w", 0.0),
                               ("memory_gb", -1.0), ("die_area_mm2", math.inf)]),
        (CardReference, dict(query_name="X", candidates=(make_card("X"),),
                             reference=make_card("Y")), "candidates", (), ValueError),
        (ServerProfile, dict(gpus_per_server=8, cpus_per_server=2, cpu_tdp_w=200.0),
         "gpus_per_server", 0, ValueError),
        (ServerProfile, dict(gpus_per_server=8, cpus_per_server=2, cpu_tdp_w=200.0),
         "cpu_tdp_w", math.inf, ValueError),
        (ElectricityMix, dict(country="USA", carbon_intensity_g_per_kwh=380.0,
                              adpe_kgsb_per_kwh=1e-8), "carbon_intensity_g_per_kwh", -1.0,
         ValueError),
        (LcaConstants, LcaConstants()._asdict(), "pue", 0.5, ValueError),
        (LcaConstants, LcaConstants()._asdict(), "lifespan_hours", 5e-324, ValueError),
        (LcaConstants, LcaConstants()._asdict(), "training_usage", 1.5, ValueError),
        (RunConfig, RunConfig()._asdict(), "gwp_floor", -1.0, PipelineError),
        (RunConfig, RunConfig()._asdict(), "scenario_ratio", 2.0, PipelineError),
        (RunConfig, RunConfig()._asdict(), "out", "", ConfigError),
    ]

    @pytest.mark.parametrize("cls, fields, field, value, error", REJECTED,
                             ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_a_checked_record_rejects_a_bad_value_however_it_is_built(
        self, cls, fields, field, value, error
    ):
        if cls is CardReference:  # its reference must be among the candidates
            fields = {**fields, "reference": fields["candidates"][0]}
        assert cls(**fields) == cls(*fields.values()) == tuple(fields.values())
        bad = {**fields, field: value}
        with pytest.raises(error):
            cls(**bad)
        with pytest.raises(error):
            cls(*bad.values())
        if hasattr(cls, "updated"):  # how merge_catalogs builds an updated card
            with pytest.raises(error):
                cls(**fields).updated(**{field: value})


class TestPinnedJson:
    """JSON that records reach, pinned to what was written while the records
    were dataclasses: json.dumps writes a named tuple as an array."""

    def test_ingest_stdout_gives_each_row_error_as_an_object(self, tmp_path, capsys):
        cards = tmp_path / "cards.csv"
        cards.write_text(
            ",".join(CARD_COLUMNS) + "\n"
            "Quadro K510M,NVIDIA,2013-07-23,87,28,1,GDDR5,30,,6.93e11,,\n"
            "Broken Card,NVIDIA,2013-13-01,87,28,1,GDDR5,30,,6.93e11,,\n",
            encoding="utf-8")
        systems = tmp_path / "systems.csv"
        systems.write_text(
            SYSTEMS_HEADER
            + "AlexNet,2012-09-30,4.7e17,GeForce GTX 580,2,132,USA,confident,false\n"
            "Broken System,2020-01-01,1e20,Quadro K510M,0,10,USA,confident,false\n",
            encoding="utf-8")
        assert main(["ingest", "--cards", str(cards), "--systems", str(systems),
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == """{
  "card_row_errors": [
    {
      "line": 3,
      "message": "column 'release_date': cannot parse ISO date from '2013-13-01'"
    }
  ],
  "cards_total": 19,
  "cards_validated": 0,
  "outputs": [
    "catalog.csv",
    "systems_normalized.csv",
    "merge_report.json"
  ],
  "system_row_errors": [
    {
      "line": 3,
      "message": "hardware_quantity must be >= 1, got 0"
    }
  ],
  "systems_total": 1
}
"""

    def test_merge_report_gives_each_divergent_field_as_an_object(self, tmp_path, capsys):
        assert main(["ingest", "--cards-alt", str(default_data_path("cards_wiki.csv")),
                     "--overrides", str(default_data_path("overrides.csv")),
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "merge_report.json").read_text(encoding="utf-8") == """{
  "divergent": [
    {
      "field": "tdp_w",
      "name": "Tesla K40",
      "resolution": "datasheet-override",
      "value_a": "235.0",
      "value_b": "245.0"
    },
    {
      "field": "release_date",
      "name": "Tesla K40",
      "resolution": "datasheet-override",
      "value_a": "2013-10-08",
      "value_b": "2013-11-18"
    },
    {
      "field": "tdp_w",
      "name": "Tesla T4",
      "resolution": "unresolved",
      "value_a": "70.0",
      "value_b": "75.0"
    }
  ],
  "total_cards": 88,
  "validated": 24
}
"""

    def test_config_digest_of_fixed_paths(self):
        paths = dict(
            out=Path("out"), cards=Path("cards.csv"), cards_alt=Path("cards_alt.csv"),
            cards_extra=Path("cards_extra.csv"), overrides=Path("overrides.csv"),
            systems=Path("systems.csv"), mixes=Path("mixes.csv"), factors=Path("factors.json"),
            constants=Path("constants.json"), plausibility=Path("plausibility.json"),
            server_profiles=Path("server_profiles.json"), column_map=Path("column_map.json"),
        )
        assert RunConfig(**paths).sha256() == (
            "d3559220288cb167ea3e0093087d46658de8377325fea70cc8ba49ade98d8336")
        assert RunConfig(**paths, apply_bridge=False, scenario_ratio=0.1, gwp_floor=0.0
                         ).sha256() == (
            "fee6461cacbfd80b818996b930c76b33f5c7f05d426f00a3630a1023eac745b1")


def test_bundled_data_paths_are_the_package_resources():
    for resource in files("mlca_trends.data").iterdir():
        assert default_data_path(resource.name) == Path(str(resource))
