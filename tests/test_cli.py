import csv
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
from mlca_trends.cli import main
from mlca_trends.estimation import fit_bridge
from mlca_trends.pipeline import (
    OUTPUT_SCHEMAS,
    Run,
    RunConfig,
    default_data_path,
    run_pipeline,
)
from mlca_trends.stats import wls_fit

REPORT_FILES = [
    "coverage.csv", "bridge.json", "estimates.csv",
    "impacts.csv", "trends.csv", "embodied_shares.csv",
]


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

    def test_byte_identical_reruns(self, tmp_path):
        run_pipeline(RunConfig(out=tmp_path / "a", seed=7))
        run_pipeline(RunConfig(out=tmp_path / "b", seed=7))
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    def test_output_schemas_stable(self, tmp_path):
        run_pipeline(RunConfig(out=tmp_path / "out", scenario_ratio=0.25))
        for name, header in OUTPUT_SCHEMAS.items():
            if name == "scenario.csv":
                name = "scenario_0.25.csv"
            path = tmp_path / "out" / name
            if name == "bridge.json":
                continue
            with path.open(newline="", encoding="utf-8") as handle:
                assert next(csv.reader(handle)) == header

    def test_scenario_file_added_when_ratio_set(self, tmp_path):
        summary = run_pipeline(RunConfig(out=tmp_path / "out", scenario_ratio=0.25))
        assert summary.output_files == REPORT_FILES + ["scenario_0.25.csv"]

    def test_stage_selection_writes_subset(self, tmp_path):
        summary = run_pipeline(RunConfig(out=tmp_path / "out"), only={"bridge.json"})
        assert summary.output_files == ["bridge.json"]
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["bridge.json"]

    def test_merge_path_with_overrides(self, tmp_path):
        config = RunConfig(
            out=tmp_path / "out",
            cards_alt=default_data_path("cards_wiki.csv"),
            overrides=default_data_path("overrides.csv"),
        )
        summary = run_pipeline(config)
        assert summary.counts["cards_validated"] == 24

    def test_demo_bridge_flags_finetuned_anomaly(self, tmp_path):
        run_pipeline(RunConfig(out=tmp_path / "out"), only={"bridge.json"})
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
    PYTHONPATH; returns the exit codes and the scipy modules then loaded."""
    script = (
        "import contextlib, io, json, sys\n"
        "from mlca_trends.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(args) for args in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
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
        assert "scipy.special" in modules
        assert not [m for m in modules if m.split(".")[:2] == ["scipy", "stats"]]


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


class TestScenarioCompare:
    def test_zero_ratio_series_identical(self, tmp_path):
        comparison = Run(RunConfig(out=tmp_path / "out", scenario_ratio=0.0)).scenario
        real = {(s, n): (v, inc) for s, n, _, v, inc in comparison.points if s == "real"}
        scen = {(("real", n)): (v, inc) for s, n, _, v, inc in comparison.points if s == "scenario"}
        assert len(real) == len(scen) > 0
        for (_, name), (value, included) in real.items():
            assert scen[("real", name)] == (value, included)
        assert comparison.excluded_real == comparison.excluded_scenario

    def test_reduction_lowers_footprints(self, tmp_path):
        comparison = Run(RunConfig(out=tmp_path / "out", scenario_ratio=0.25)).scenario
        by_series = {"real": {}, "scenario": {}}
        for series, name, date, value, _ in comparison.points:
            by_series[series][name] = (date, value)
        assert by_series["real"].keys() == by_series["scenario"].keys()
        for name, (date, value) in by_series["real"].items():
            reduced = by_series["scenario"][name][1]
            assert reduced <= value + 1e-9
            if date.year > 2019:
                assert reduced < value  # usage share shrinks, embodied stays


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
        code = main(["scenario", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "scenario-ratio" in capsys.readouterr().err

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
    "env-config-not-utf8": ("config", None, b'{"seed": 1}' + _NOT_UTF8, []),
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

    @pytest.mark.parametrize(
        "bundle",
        [
            {"sytems": "systems.csv"},
            {"scenario_ratio": "0.1"},
            {"scenario_ratio": True},
            {"gwp_floor": "50"},
            {"seed": 1.5},
            {"seed": False},
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
                        "seed": 3, "out": str(tmp_path / "env_out")}),
            encoding="utf-8",
        )
        monkeypatch.setenv("MLCA_TRENDS_CONFIG", str(env_file))
        assert main(["report"]) == 0
        provenance = json.loads(capsys.readouterr().out)["provenance"]
        assert provenance["apply_bridge"] is False
        assert (provenance["scenario_ratio"], provenance["gwp_floor"], provenance["seed"]) == (
            0.25, 10.0, 3
        )
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
