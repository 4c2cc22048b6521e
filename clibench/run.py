"""End-to-end benchmark of the mlca-trends CLI.

usage: python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark writes seeded inputs
under .clibench_work/, then runs `python -m mlca_trends.cli ...` in fresh
interpreters with src/ on PYTHONPATH, exactly as a user runs the CLI:

  * one untimed warm-up invocation fills the .pyc and file caches;
  * rounds of the workload's invocations repeat while the next round is
    expected to end within S seconds; every other round starts with a
    set-up probe (a fresh interpreter running `import mlca_trends.cli`),
    and at least three probes are taken;
  * the first round's outputs are checked (checks.py), and every later
    round's must be byte-identical to them;
  * the medians over rounds are printed as the last line of stdout.

With --trace 0 the metrics are wall_s, setup_s, cpu_s and peak_rss_mb.
With --trace 1 untraced rounds alternate with rounds run under tracer.py
(at least two of each), and the metrics are the per-layer timings and
counts (see README.md). A failed check or a non-zero exit counts the
invocation as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import gen

HERE = Path(__file__).resolve().parent
WORK_DIR = ".clibench_work"
RATIO = 0.1
MIX_ROWS = 10_000
EPOCH_ROWS = 800
MIN_SETUP_PROBES = 3
SETUP_PROBE_EVERY = 2  # rounds; most of a run goes to the workload itself
IMPORTTIME_PROBES = 3
BUNDLED_CARDS = ("cards_nvidia_workstation.csv", "cards_other.csv")


@dataclass
class Invocation:
    name: str
    args: list[str]
    out: Path
    check: Callable[[Path, dict], list[str]]


@dataclass
class Workload:
    invocations: list[Invocation]
    reference: Invocation | None = None  # untimed report the stage artifacts must equal
    make_up: dict = field(default_factory=dict)


def bundled_catalog(src: Path) -> tuple[checks.Catalog, dict]:
    data = src / "mlca_trends" / "data"
    catalog = checks.Catalog(data / BUNDLED_CARDS[0], extra=data / BUNDLED_CARDS[1],
                             plausibility=data / "plausibility.json")
    merge = {"cards_workstation": catalog.workstation, "cards_validated": 0,
             "cards_total": len(catalog.cards)}
    return catalog, merge


def report_check(systems: Path, catalog, merge: dict, ratio):
    return lambda out, summary: checks.check_report(out, summary, systems, catalog, merge, ratio)


def prepare_report_scenario(work: Path, seed: int, src: Path) -> Workload:
    systems = work / "inputs" / "systems.csv"
    make_up = gen.write_systems_mix(systems, MIX_ROWS, seed)
    catalog, merge = bundled_catalog(src)
    args = ["report", "--systems", str(systems), "--scenario-ratio", str(RATIO)]
    out = work / "out" / "report"
    return Workload([Invocation("report", args, out, report_check(systems, catalog, merge, RATIO))],
                    make_up=make_up)


def prepare_report_wide_catalog(work: Path, seed: int, src: Path) -> Workload:
    inputs = work / "inputs"
    make_up = gen.write_wide_catalog(inputs, EPOCH_ROWS, seed)
    catalog = checks.Catalog(inputs / "cards_primary.csv", inputs / "cards_second.csv",
                             inputs / "cards_extra.csv", inputs / "overrides.csv",
                             inputs / "plausibility.json")
    merge = {"cards_workstation": make_up["cards_workstation"],
             "cards_validated": make_up["cards_validated"],
             "cards_total": make_up["cards_workstation"] + make_up["cards_extra"]}
    args = ["report",
            "--cards", str(inputs / "cards_primary.csv"),
            "--cards-alt", str(inputs / "cards_second.csv"),
            "--cards-extra", str(inputs / "cards_extra.csv"),
            "--overrides", str(inputs / "overrides.csv"),
            "--plausibility", str(inputs / "plausibility.json"),
            "--systems", str(inputs / "systems.csv")]
    out = work / "out" / "report"
    check = report_check(inputs / "systems.csv", catalog, merge, None)
    return Workload([Invocation("report", args, out, check)], make_up=make_up)


# Stage subcommand -> the files it writes that a report run writes too.
STAGE_ARTIFACTS = {
    "ingest": (),
    "coverage": ("coverage.csv",),
    "bridge": ("bridge.json",),
    "estimate": ("estimates.csv",),
    "impacts": ("impacts.csv", "embodied_shares.csv"),
    "trends": ("trends.csv",),
    "scenario": (f"scenario_{RATIO:.12g}.csv",),
}
STAGE_OWN_FILES = {
    "ingest": ("catalog.csv", "systems_normalized.csv", "merge_report.json"),
    "coverage": ("coverage.json",),
}


def _file_set_check(expected: set[str], out: Path) -> list[str]:
    present = {p.name for p in out.iterdir()}
    return [] if present == expected else [f"{out.name}: wrote {sorted(present)}, expected {sorted(expected)}"]


def prepare_stage_cli(work: Path, seed: int, src: Path) -> Workload:
    systems = work / "inputs" / "systems.csv"
    make_up = gen.write_systems_mix(systems, EPOCH_ROWS, seed)
    catalog, merge = bundled_catalog(src)
    ref_out = work / "reference"
    reference = Invocation(
        "report", ["report", "--systems", str(systems), "--scenario-ratio", str(RATIO)],
        ref_out, report_check(systems, catalog, merge, RATIO),
    )

    def stage_check(stage: str):
        def check(out: Path, summary: dict) -> list[str]:
            failures = _file_set_check(set(STAGE_ARTIFACTS[stage]) | set(STAGE_OWN_FILES.get(stage, ())), out)
            for name in STAGE_ARTIFACTS[stage]:
                if (out / name).is_file() and (out / name).read_bytes() != (ref_out / name).read_bytes():
                    failures.append(f"{stage}: {name} differs from the report run's")
            if stage == "ingest" and not failures:
                failures += ingest_check(out, systems, catalog)
            if stage == "coverage" and not failures:
                number = json.loads((out / "coverage.json").read_text(encoding="utf-8"))["number"]
                if number != checks.expected_counts(systems)["coverage"]:
                    failures.append("coverage.json number differs from the recomputed counts")
            return failures
        return check

    invocations = []
    for stage in STAGE_ARTIFACTS:
        args = [stage, "--systems", str(systems)]
        if stage == "scenario":
            args += ["--scenario-ratio", str(RATIO)]
        invocations.append(Invocation(stage, args, work / "out" / stage, stage_check(stage)))
    return Workload(invocations, reference=reference, make_up=make_up)


def ingest_check(out: Path, systems: Path, catalog: checks.Catalog) -> list[str]:
    """The normalized tables list the merged catalog and every system in order."""
    failures = []
    names = [r["name"] for r in checks.read_rows(out / "catalog.csv")]
    if names != [c["name"] for c in catalog.cards]:
        failures.append(f"ingest: catalog.csv lists {len(names)} cards, expected {len(catalog.cards)}")
    got = [r["name"] for r in checks.read_rows(out / "systems_normalized.csv")]
    if got != [r["name"] for r in checks.read_rows(systems)]:
        failures.append("ingest: systems_normalized.csv does not list every system in order")
    merge = json.loads((out / "merge_report.json").read_text(encoding="utf-8"))
    if (merge["total_cards"], merge["validated"]) != (catalog.workstation, 0):
        failures.append(f"ingest: merge_report.json counts {merge['total_cards']}/{merge['validated']}")
    return failures


WORKLOADS = {
    "report_scenario": prepare_report_scenario,
    "report_wide_catalog": prepare_report_wide_catalog,
    "stage_cli": prepare_stage_cli,
}


class Runner:
    """Spawns CLI processes and measures each from spawn to exit."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("MLCA_TRENDS_CONFIG", None)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def spawn(self, argv: list[str], stdout: Path | None = None, stderr=subprocess.DEVNULL):
        """(exit code, wall s, cpu s, peak RSS MB) of one child process."""
        sink = stdout.open("wb") if stdout else subprocess.DEVNULL
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=sink, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if stdout:
                sink.close()
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def cli(self, args: list[str], stdout: Path, trace: Path | None = None):
        prefix = [sys.executable, str(HERE / "tracer.py"), str(trace)] if trace else [sys.executable, "-m", "mlca_trends.cli"]
        return self.spawn(prefix + args, stdout)

    def setup_probe(self) -> float:
        code, wall, _, _ = self.spawn([sys.executable, "-c", "import mlca_trends.cli"])
        if code != 0:
            raise RuntimeError("import mlca_trends.cli failed")
        return wall

    def import_times(self) -> tuple[float, float]:
        """(cli.import_s, stats.import_s) from `python -X importtime`."""
        log = self.work / "importtime.log"
        with log.open("wb") as handle:
            code, _, _, _ = self.spawn([sys.executable, "-X", "importtime", "-c", "import mlca_trends.cli"],
                                       stderr=handle)
        if code != 0:
            raise RuntimeError("import mlca_trends.cli failed")
        cli_us = stats_us = 0
        for line in log.read_text(encoding="utf-8").splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.startswith(" mlca_trends"):  # top level of the import statement
                cli_us += int(cumulative)
            if name.strip() == "mlca_trends.stats":
                stats_us = int(cumulative)
        return cli_us / 1e6, stats_us / 1e6


def digest(out: Path, stdout: Path) -> str:
    h = hashlib.sha256(stdout.read_bytes())
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop, to recognise a slowed host."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


@dataclass
class Round:
    wall: float
    cpu: float
    rss: float
    attempted: int
    failed: int
    traces: list[dict]


def check(inv: Invocation, stdout: Path) -> list[str]:
    """The invocation's checks; an output the checks cannot process fails
    them. The checks only read files, so any error they raise is the
    output's."""
    try:
        return inv.check(inv.out, json.loads(stdout.read_text(encoding="utf-8")))
    except Exception as exc:
        return [f"{inv.name}: unreadable output ({type(exc).__name__}: {exc})"]


class Session:
    def __init__(self, runner: Runner, workload: Workload):
        self.runner = runner
        self.workload = workload
        # Per invocation: digest of the first round's outputs and their
        # check result. A later round with the same bytes has the same result.
        self.verdicts: dict[str, tuple[str, list[str]]] = {}
        self.failures: list[str] = []

    def run_round(self, traced: bool) -> Round:
        wall = cpu = rss = 0.0
        failed = 0
        traces = []
        for inv in self.workload.invocations:
            if inv.out.exists():
                shutil.rmtree(inv.out)
            stdout = self.runner.work / "stdout" / f"{inv.name}.json"
            trace = self.runner.work / "trace" / f"{inv.name}.json" if traced else None
            if trace:
                trace.unlink(missing_ok=True)
            args = inv.args + ["--out", str(inv.out)]
            code, w, c, r = self.runner.cli(args, stdout, trace)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            if code != 0:
                problems = [f"{inv.name}: exit code {code}"]
            else:
                d = digest(inv.out, stdout)
                if inv.name not in self.verdicts:
                    self.verdicts[inv.name] = (d, check(inv, stdout))
                first, problems = self.verdicts[inv.name]
                if d != first:
                    problems = [f"{inv.name}: outputs differ from the first round's"]
            if traced:
                try:
                    traces.append(json.loads(trace.read_text(encoding="utf-8")))
                except (OSError, ValueError) as exc:
                    problems = [*problems, f"{inv.name}: no trace ({type(exc).__name__}: {exc})"]
            if problems:
                failed += 1
                self.failures.extend(problems[:5])
        return Round(wall, cpu, rss, len(self.workload.invocations), failed, traces)


def layer_metrics(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    """Per-layer medians over traced rounds; each round sums its invocations."""
    per_round = []
    for rnd in rounds:
        seconds, calls, distinct, covered = {}, {}, set(), 0.0
        for t in rnd.traces:
            for k, v in t["seconds"].items():
                seconds[k] = seconds.get(k, 0.0) + v
            for k, v in t["calls"].items():
                calls[k] = calls.get(k, 0) + v
            distinct.update(t["distinct"].get("catalog.resolve", ()))
            covered += t["stage_covered"]
        m = {}
        for metric in ("pipeline.load_bundle", "pipeline.bridge_stage", "pipeline.estimate_stage",
                       "pipeline.impact_stage", "pipeline.trend_stage", "pipeline.scenario",
                       "pipeline.write", "catalog.resolve", "catalog.merge", "systems.parse",
                       "estimation.fit_bridge", "lca.system_impact", "stats.exp_trend",
                       "stats.shapiro_wilk"):
            m[f"{metric}_s"] = (seconds.get(metric, 0.0), "s")
        m["pipeline.unattributed_s"] = (seconds.get("pipeline.run", 0.0) - covered, "s")
        for metric in ("pipeline.impact_stage", "catalog.resolve", "catalog.normalize_name",
                       "estimation.estimate_gpu_hours", "lca.system_impact", "lca.server_select",
                       "stats.exp_trend"):
            m[f"{metric}.calls"] = (calls.get(metric, 0), "count")
        m["pipeline.stage_calls"] = (sum(calls.get(f"pipeline.{s}", 0) for s in (
            "load_bundle", "bridge_stage", "estimate_stage", "impact_stage", "trend_stage",
            "scenario")), "count")
        m["catalog.resolve.distinct"] = (len(distinct), "count")
        per_round.append(m)
    medians = {}
    for k, (_, unit) in per_round[0].items():
        median = statistics.median_low if unit == "count" else statistics.median
        medians[k] = (median(r[k][0] for r in per_round), unit)
    return medians


def repeat(seconds: float, step: Callable[[], None], minimum: int = 1) -> None:
    """Call step() `minimum` times, then again while the next call is
    expected to end within `seconds` of the first, judging by the last
    call's length."""
    start = time.perf_counter()
    for done in itertools.count(1):
        begin = time.perf_counter()
        step()
        now = time.perf_counter()
        if done >= minimum and now - start + (now - begin) > seconds:
            return


def measure(session: Session, runner: Runner, seconds: float, trace: bool):
    calib = [calibrate()]
    rounds: list[Round] = []
    setups: list[float] = []
    if not trace:
        def step():
            if len(rounds) % SETUP_PROBE_EVERY == 0:
                setups.append(runner.setup_probe())
            rounds.append(session.run_round(traced=False))

        repeat(seconds, step)
        while len(setups) < MIN_SETUP_PROBES:
            setups.append(runner.setup_probe())
        calib.append(calibrate())
        metrics = {
            "wall_s": (statistics.median(r.wall for r in rounds), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "cpu_s": (statistics.median(r.cpu for r in rounds), "s"),
            "peak_rss_mb": (statistics.median(r.rss for r in rounds), "MB"),
        }
        return rounds, metrics, calib
    # Untraced and traced rounds alternate so that both see the same host.
    untraced: list[Round] = []
    traced: list[Round] = []

    def pair():
        untraced.append(session.run_round(traced=False))
        traced.append(session.run_round(traced=True))

    repeat(seconds, pair, minimum=2)
    imports = [runner.import_times() for _ in range(IMPORTTIME_PROBES)]
    calib.append(calibrate())
    metrics = {
        "cli.import_s": (statistics.median(i[0] for i in imports), "s"),
        "stats.import_s": (statistics.median(i[1] for i in imports), "s"),
        **layer_metrics(traced),
        "host.calib_s": (statistics.median(calib), "s"),
        "trace.overhead_s": (statistics.median(r.wall for r in traced)
                             - statistics.median(r.wall for r in untraced), "s"),
    }
    return untraced + traced, metrics, calib


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "mlca_trends" / "cli.py").is_file():
        print(f"error: no mlca_trends sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / WORK_DIR / args.workload
    if work.exists():
        shutil.rmtree(work)
    for sub in ("inputs", "out", "stdout", "trace"):
        (work / sub).mkdir(parents=True)

    workload = WORKLOADS[args.workload](work, args.seed, src)
    runner = Runner(root, work)
    session = Session(runner, workload)

    # Warm-up: the reference report when the workload has one, else an
    # invocation that imports the whole CLI. Artifacts compared with a
    # reference that failed its checks prove nothing, so they all fail.
    if workload.reference is not None:
        ref = workload.reference
        stdout = work / "stdout" / "reference.json"
        code, _, _, _ = runner.cli(ref.args + ["--out", str(ref.out)], stdout)
        problems = [f"exit code {code}"] if code != 0 else check(ref, stdout)
        if problems:
            session.failures.extend(f"reference report: {p}" for p in problems[:5])
            for inv in workload.invocations:
                inv.check = lambda out, summary: ["the reference report failed its checks"]
    else:
        runner.spawn([sys.executable, "-m", "mlca_trends.cli", "--version"])

    rounds, metrics, calib = measure(session, runner, args.seconds, bool(args.trace))
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for problem in session.failures[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = sorted({m for r in rounds for t in r.traces for m in t["missing"]})
    if missing:
        print(f"trace: not found, so not measured: {', '.join(missing)}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: inputs {workload.make_up}; round walls "
          f"{[round(r.wall, 3) for r in rounds]} s; calib {[round(c, 3) for c in calib]} s",
          file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
