"""Self-test of the benchmark's output checks.

usage: python3 clibench/selftest.py

Run from the root of a source checkout. Runs `report` once on the
stage_cli inputs (bundled catalog, with a scenario) and once on the wide
catalog, confirms that the checks accept the untouched outputs, then
alters one output at a time and confirms that each altered copy is
rejected. Exits 0 when every alteration is caught.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import sys
from pathlib import Path

import run

SEED = 1


def _edit_csv(path: Path, edit) -> None:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    rows = edit(rows[0], rows[1:])
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


def _change_cell(filename: str, column: str, where, change):
    """Alteration that rewrites `column` in the first row matching `where`."""
    def alter(out: Path, summary: dict) -> None:
        def edit(header, body):
            i = header.index(column)
            row = next(r for r in body if where(dict(zip(header, r))))
            row[i] = change(row[i], dict(zip(header, row)))
            return [header, *body]
        _edit_csv(out / filename, edit)
    return alter


def _drop_row(filename: str, where):
    def alter(out: Path, summary: dict) -> None:
        def edit(header, body):
            i = next(k for k, r in enumerate(body) if where(dict(zip(header, r))))
            return [header, *body[:i], *body[i + 1:]]
        _edit_csv(out / filename, edit)
    return alter


# Relative change of a bumped value: far above the checks' rounding
# tolerance, far below anything a reader would notice.
BUMP = 1 + 1e-6


def _bump(cell: str, _row) -> str:
    return repr(float(cell) * BUMP)


def _scale_row(filename: str, columns, where):
    """Alteration that scales every listed column of the first matching row
    alike, so that interval order is kept and only a value check can tell."""
    def alter(out: Path, summary: dict) -> None:
        def edit(header, body):
            row = next(r for r in body if where(dict(zip(header, r))))
            for column in columns:
                i = header.index(column)
                row[i] = repr(float(row[i]) * BUMP)
            return [header, *body]
        _edit_csv(out / filename, edit)
    return alter


def _shift_ols_fit(out: Path, summary: dict) -> None:
    """Move one OLS card trend to another slope whose growth factor, CAGR and
    doubling time stay consistent with it: only the refit can tell."""
    def edit(header, body):
        col = {k: header.index(k) for k in ("slope_per_year", "growth_factor", "cagr_pct",
                                             "doubling_time_years", "kind", "weighting")}
        row = next(r for r in body if r[col["kind"]] == "trend" and r[col["weighting"]] == "ols")
        slope = float(row[col["slope_per_year"]]) + 1e-3
        row[col["slope_per_year"]] = repr(slope)
        row[col["growth_factor"]] = repr(math.exp(slope))
        row[col["cagr_pct"]] = repr(100 * (math.exp(slope) - 1))
        row[col["doubling_time_years"]] = repr(math.log(2) / slope) if slope > 0 else "nan"
        return [header, *body]
    _edit_csv(out / "trends.csv", edit)


def _summary_count(key: str):
    def alter(out: Path, summary: dict) -> None:
        summary["counts"][key] += 1
    return alter


def _replace_json(filename: str, change):
    def alter(out: Path, summary: dict) -> None:
        data = json.loads((out / filename).read_text(encoding="utf-8"))
        change(data)
        (out / filename).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return alter


SCENARIO = f"scenario_{run.RATIO:.12g}.csv"
HOURS = ("gpu_hours_min", "gpu_hours_ref", "gpu_hours_max")

# (name, alteration) applied to the bundled-catalog report with a scenario.
MIX_ALTERATIONS = [
    ("bumped direct gpu_hours", _scale_row(
        "estimates.csv", HOURS, lambda r: r["method"] == "direct")),
    ("bumped flop-based gpu_hours", _scale_row(
        "estimates.csv", HOURS, lambda r: r["method"] != "direct")),
    ("dropped estimate row", _drop_row("estimates.csv", lambda r: True)),
    ("dropped trend row", _drop_row("trends.csv", lambda r: r["kind"] == "trend")),
    ("dropped OLS card point", _drop_row("trends.csv", lambda r: r["series"] == "card_tdp")),
    ("shifted card OLS fit", _shift_ols_fit),
    ("bumped growth_factor", _change_cell(
        "trends.csv", "growth_factor", lambda r: r["kind"] == "trend", _bump)),
    ("bumped doubling time", _change_cell(
        "trends.csv", "doubling_time_years", lambda r: r["kind"] == "trend" and r["doubling_time_years"] != "nan",
        _bump)),
    ("bumped scenario gwp", _change_cell(
        SCENARIO, "gwp_kg", lambda r: r["series"] == "scenario" and r["year"] and float(r["year"]) > 2021,
        _bump)),
    ("dropped scenario point", _drop_row(SCENARIO, lambda r: r["series"] == "scenario")),
    ("embodied above total", _change_cell(
        "impacts.csv", "embodied_gwp_ref", lambda r: True, lambda c, r: repr(2 * float(r["gwp_kg_ref"])))),
    ("interval out of order", _change_cell(
        "impacts.csv", "energy_kwh_min", lambda r: True, lambda c, r: repr(2 * float(r["energy_kwh_max"])))),
    ("eligible count off by one", _summary_count("systems_eligible")),
    ("multi-hardware count off by one", _summary_count("excluded_multi_hardware")),
    ("coverage number altered", _change_cell("coverage.csv", "flop", lambda r: r["row"] == "number",
                                              lambda c, r: str(int(c) + 1))),
]

# Applied to the wide-catalog report: family envelopes and merge counts.
WIDE_ALTERATIONS = [
    ("narrowed family envelope", lambda out, summary: _narrow_family(out)),
    ("validated count off by one", _summary_count("cards_validated")),
    ("workstation count off by one", _summary_count("cards_workstation")),
    ("bridge slope altered", _replace_json("bridge.json", lambda d: d["model"].update(slope=d["model"]["slope"] * 1.01))),
]


def _narrow_family(out: Path) -> None:
    def edit(header, body):
        lo, ref, hi = (header.index(k) for k in ("gpu_hours_min", "gpu_hours_ref", "gpu_hours_max"))
        row = next(r for r in body if float(r[lo]) < float(r[ref]))
        row[lo] = row[ref]
        return [header, *body]
    _edit_csv(out / "estimates.csv", edit)


def rejected(inv: run.Invocation, out: Path, summary: dict, alter) -> bool:
    copy = out.parent / f"{out.name}_altered"
    if copy.exists():
        shutil.rmtree(copy)
    shutil.copytree(out, copy)
    altered = json.loads(json.dumps(summary))
    alter(copy, altered)
    problems = inv.check(copy, altered)
    shutil.rmtree(copy)
    return bool(problems)


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "mlca_trends" / "cli.py").is_file():
        print(f"error: no mlca_trends sources under {src}", file=sys.stderr)
        return 2
    missed = 0
    for label, prepare, alterations in (
        ("stage_cli", run.prepare_stage_cli, MIX_ALTERATIONS),
        ("report_wide_catalog", run.prepare_report_wide_catalog, WIDE_ALTERATIONS),
    ):
        work = root / run.WORK_DIR / f"selftest_{label}"
        if work.exists():
            shutil.rmtree(work)
        (work / "inputs").mkdir(parents=True)
        workload = prepare(work, SEED, src)
        inv = workload.reference or workload.invocations[0]
        runner = run.Runner(root, work)
        stdout = work / "summary.json"
        code, _, _, _ = runner.cli(inv.args + ["--out", str(inv.out)], stdout)
        problems = [f"exit code {code}"] if code != 0 else run.check(inv, stdout)
        print(f"{label}: untouched outputs {'pass' if not problems else 'FAIL: ' + problems[0]}")
        if problems:
            missed += 1
            continue
        summary = json.loads(stdout.read_text(encoding="utf-8"))
        for name, alter in alterations:
            caught = rejected(inv, inv.out, summary, alter)
            missed += not caught
            print(f"  {'rejected' if caught else 'MISSED  '}  {name}")
        if label == "stage_cli":
            stage = next(i for i in workload.invocations if i.name == "trends")
            runner.cli(stage.args + ["--out", str(stage.out)], work / "stage.json")
            ok = not stage.check(stage.out, {})
            _drop_row("trends.csv", lambda r: r["kind"] == "trend")(stage.out, {})
            caught = bool(stage.check(stage.out, {}))
            missed += (not ok) + (not caught)
            print(f"  {'rejected' if ok and caught else 'MISSED  '}  trends subcommand artifact that differs from the report's")
    print("self-test passed: untouched outputs pass, every alteration is rejected"
          if not missed else f"self-test FAILED: {missed} problem(s) above")
    return 0 if not missed else 1


if __name__ == "__main__":
    sys.exit(main())
