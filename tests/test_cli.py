import codecs
import csv
import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from mlca_trends import pipeline
from mlca_trends.catalog import CARD_COLUMNS, LATEST_RELEASE_YEAR
from mlca_trends.cli import _build_parser, _config_from_args, main
from mlca_trends.errors import ConfigError, PipelineError
from mlca_trends.estimation import fit_bridge
from mlca_trends.pipeline import (
    OUTPUTS,
    Run,
    RunConfig,
    default_data_path,
    run_pipeline,
)
from mlca_trends.stats import wls_fit
from mlca_trends.systems import SYSTEM_COLUMNS

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
        x = np.log([h2 for _, h2 in fitted])
        fit = wls_fit(x, np.log([h1 for h1, _ in fitted]))
        e, n = fit.residuals, fit.n
        assert payload["model"]["f_statistic"] == fit.f_statistic
        assert payload["model"]["f_pvalue"] == sps.f.sf(fit.f_statistic, 1, n - 2)
        diagnostics = payload["diagnostics"]
        assert diagnostics["shapiro_wilk"] == list(sps.shapiro(e))
        bp = n * wls_fit(x, e * e).r2
        assert diagnostics["breusch_pagan_studentized"] == [bp, sps.chi2.sf(bp, 1)]
        dw = np.sum(np.diff(e) ** 2) / np.dot(e, e)
        assert diagnostics["durbin_watson"] == [dw, sps.norm.cdf((dw - 2.0) / (2.0 / math.sqrt(n)))]


_SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_main(commands: list[list[str]]) -> tuple[list[int], list[str]]:
    """Runs main() over each argument list in a fresh interpreter with src on
    PYTHONPATH; returns the exit codes and the scipy and numpy.f2py modules
    then loaded."""
    script = (
        "import contextlib, io, json, sys\n"
        "from mlca_trends.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(args) for args in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py'))]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "MLCA_TRENDS_CONFIG"}
    env["PYTHONPATH"] = str(_SRC)
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return tuple(json.loads(result.stdout))


class TestScipyOnDemand:
    def test_import_loads_no_scipy(self):
        assert _fresh_main([]) == ([], [])

    def test_stage_subcommands_but_bridge_load_no_scipy_stats(self, tmp_path):
        commands = [
            [command, "--out", str(tmp_path / command)]
            for command in ("ingest", "coverage", "estimate", "impacts", "trends")
        ] + [["scenario", "--scenario-ratio", "0.1", "--out", str(tmp_path / "scenario")]]
        codes, modules = _fresh_main(commands)
        assert codes == [0] * len(commands)
        assert "scipy.stats" not in modules

    def test_bridge_and_report_load_no_scipy_stats(self, tmp_path):
        commands = [
            ["bridge", "--out", str(tmp_path / "bridge")],
            ["report", "--scenario-ratio", "0.1", "--out", str(tmp_path / "report")],
        ]
        codes, modules = _fresh_main(commands)
        assert codes == [0, 0]
        assert "scipy.special._ufuncs" in modules
        # scipy.special's __init__ would load its array-API layer, and with it numpy.f2py.
        unwanted = {"scipy.special._support_alternative_backends", "scipy._lib._array_api",
                    "numpy.f2py"}
        assert not unwanted & set(modules)
        assert not [m for m in modules if m.split(".")[:2] == ["scipy", "stats"]]

    @pytest.mark.parametrize("options", [[], ["-W", "error"]], ids=["default", "W-error"])
    def test_tails_loaded_without_the_package_init_are_scipys(self, options):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from mlca_trends import stats\n"
            "ufuncs = stats._ufuncs()\n"
            "assert 'scipy.special' not in sys.modules\n"
            "import scipy.special, scipy.stats\n"
            "assert scipy.special._ufuncs is ufuncs\n"
            "rng = np.random.default_rng(14)\n"
            "d = rng.integers(1, 5000, 3000).astype(float)\n"
            "f = np.concatenate([[0.0, 1e300], 10.0 ** rng.uniform(-12, 6, 2998)])\n"
            "x = np.concatenate([[0.0], 10.0 ** rng.uniform(-12, 4, 2999)])\n"
            "z = np.concatenate([[-40.0, 40.0], rng.normal(scale=10.0, size=2998)])\n"
            "pairs = [(ufuncs.fdtrc(1, d, f), scipy.special.fdtrc(1, d, f)),\n"
            "         (ufuncs.chdtrc(1, x), scipy.special.chdtrc(1, x)),\n"
            "         (ufuncs.ndtr(z), scipy.special.ndtr(z))]\n"
            "print([ours.tobytes() == theirs.tobytes() for ours, theirs in pairs])\n"
        )
        assert _fresh_python(script, "1", *options) == "[True, True, True]\n"

    def test_tails_come_from_a_scipy_special_already_loaded(self):
        script = (
            "import sys, scipy.special\n"
            "from mlca_trends import stats\n"
            "print(stats._ufuncs() is scipy.special._ufuncs,\n"
            "      sys.modules['scipy.special'] is scipy.special)\n"
        )
        assert _fresh_python(script, "1") == "True True\n"


def _fresh_python(script: str, blas_threads: str, *options: str) -> str:
    """Stdout of a script run in a fresh interpreter with the given options,
    src on PYTHONPATH and the caller's OPENBLAS_NUM_THREADS set to blas_threads."""
    env = {k: v for k, v in os.environ.items() if k != "MLCA_TRENDS_CONFIG"}
    env.update(PYTHONPATH=str(_SRC), OPENBLAS_NUM_THREADS=blas_threads)
    result = subprocess.run([sys.executable, *options, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _fresh_main_loads(commands: list[list[str]], module: str) -> list[tuple]:
    """Imports mlca_trends.cli, then runs main() over each argument list, in
    one fresh interpreter; returns, after the import and after each run, the
    exit code (None for the import, SystemExit's code where argparse exits)
    and whether `module` is loaded."""
    script = (
        "import contextlib, io, json, sys\n"
        "from mlca_trends.cli import main\n"
        "def run(args):\n"
        "    try:\n"
        "        return main(args)\n"
        "    except SystemExit as exc:  # --help, --version and usage errors\n"
        "        return exc.code\n"
        f"steps = [[None, {module!r} in sys.modules]]\n"
        f"for args in json.loads({json.dumps(commands)!r}):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        steps.append([run(args), {module!r} in sys.modules])\n"
        "print(json.dumps(steps))\n"
    )
    return [tuple(step) for step in json.loads(_fresh_python(script, "1"))]


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

    @pytest.mark.parametrize("command", [["bridge"], ["estimate"], ["impacts"], ["trends"],
                                         ["scenario", "--scenario-ratio", "0.1"], ["report"]],
                             ids=lambda command: command[0])
    def test_stages_that_compute_load_numpy(self, tmp_path, command):
        steps = _fresh_main_loads([[*command, "--out", str(tmp_path / "out")]], "numpy")
        assert steps == [(None, False), (0, True)]

    def test_no_subcommand_loads_numpy_ma(self, tmp_path):
        commands = [[*command, "--out", str(tmp_path / command[0])]
                    for command in (["ingest"], ["coverage"], ["bridge"], ["estimate"],
                                    ["impacts"], ["trends"], ["scenario", "--scenario-ratio", "0.1"],
                                    ["report", "--scenario-ratio", "0.1"])]
        assert _fresh_main_loads(commands, "numpy.ma") == [(None, False)] + [(0, False)] * 8


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


class TestOneBlasThread:
    """Importing the package pins OpenBLAS to one thread, whatever the caller set."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_import_starts_no_blas_worker_threads(self):
        script = "import os, mlca_trends, scipy.special; print(len(os.listdir('/proc/self/task')))"
        assert _fresh_python(script, "2") == "1\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_numpy_first_loaded_by_a_stage_starts_no_blas_worker_threads(self, tmp_path):
        script = (
            "import contextlib, io, os, sys\n"
            "from mlca_trends.cli import main\n"
            "loaded = 'numpy' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['bridge', '--out', {str(tmp_path / 'out')!r}])\n"
            "print(loaded, code, len(os.listdir('/proc/self/task')))\n"
        )
        assert _fresh_python(script, "2") == "False 0 1\n"

    def test_a_long_fit_is_the_same_whatever_thread_count_the_caller_set(self):
        # Above 10,000 points a threaded dot sums its halves in another order.
        script = (
            "import datetime as dt\n"
            "from mlca_trends.stats import exp_trend\n"
            "import numpy as np  # after the package, which pins the threads first\n"
            "rng = np.random.default_rng(20)\n"
            "days = rng.integers(0, 9000, 20_000)\n"
            "values = np.exp(0.3 * days / 365.25 + rng.normal(size=days.size))\n"
            "fit = exp_trend([(dt.date(2000, 1, 1) + dt.timedelta(days=int(d)), float(v))\n"
            "                 for d, v in zip(days, values)])\n"
            "print(fit.slope_per_year.hex(), fit.intercept.hex())\n"
        )
        assert _fresh_python(script, "1") == _fresh_python(script, "2")


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
        run_pipeline(dataclasses.replace(base, out=tmp_path / "a", systems=systems))
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
        run_pipeline(dataclasses.replace(base, out=tmp_path / "b", systems=systems,
                                         factors=factors, mixes=mixes, gwp_floor=0.0))
        scenario = _rows_by_series(tmp_path / "b" / "scenario_0.1.csv")
        for name in ("real", "scenario"):
            *points, trend = scenario[name]
            clean = next(r for r in points if r["system"] == "Clean")
            assert (float(clean["gwp_kg"]), clean["included"]) == (0.0, "true")
            assert (trend["n_used"], trend["n_excluded_floor"]) == ("3", "0")


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


@pytest.mark.parametrize("case", ["bundled", "zero-floor"])
def test_no_float_cell_reaches_the_csv_writer(tmp_path, case):
    """Every CSV row builder formats its float cells (numpy.float64 is a
    float too) with format_cell: csv would write a float's repr instead."""
    config = (RunConfig(scenario_ratio=0.1) if case == "bundled"
              else _zero_floor_config(tmp_path))
    run = Run(config)
    csv_outputs = {name: list(content(run))
                   for name, (_, _, header, content) in OUTPUTS.items() if header is not None}
    assert all(csv_outputs.values())  # every builder made rows to check
    floats = [(name, row) for name, rows in csv_outputs.items() for row in rows
              if any(isinstance(cell, float) for cell in row)]
    assert floats == []


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

    @pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
    def test_each_run_setting_is_a_flag_and_an_env_key(self, tmp_path, monkeypatch, field):
        default = getattr(RunConfig(), field.name)
        # field type -> ((flag text, its value), (MLCA_TRENDS_CONFIG value, its value))
        (flag_text, flag_value), (env_json, env_value) = {
            "Path": (("flag.csv", Path("flag.csv")), ("env.csv", Path("env.csv"))),
            "float": (("0.2", 0.2), (0.1, 0.1)),
            "bool": ((str(default).lower(), default), (not default, not default)),
        }[field.type.removesuffix(" | None")]
        assert env_value not in (default, flag_value)

        def setting(*flags):
            return getattr(_config_from_args(_build_parser().parse_args(["report", *flags])),
                           field.name)

        flag = f"--{field.name.replace('_', '-')}={flag_text}"
        monkeypatch.delenv("MLCA_TRENDS_CONFIG", raising=False)
        assert (setting(), setting(flag)) == (default, flag_value)
        env_file = tmp_path / "config.json"
        env_file.write_text(json.dumps({field.name: env_json}), encoding="utf-8")
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
