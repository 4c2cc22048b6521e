"""Run the mlca-trends CLI with timers and counters around its layers.

usage: python tracer.py TRACE_JSON CLI_ARG...

Each function is wrapped where its caller looks it up (for example
`mlca_trends.pipeline.resolve_card_reference`, which the bridge and
estimate stages call), so the program itself is unchanged. A wrapped
function's time is counted once however deeply it recurses into itself.
`pipeline.unattributed` is the time of `run_pipeline` and
`scenario_compare` that no stage or write span covers. A function that
is no longer where the tracer looks for it is left unwrapped and named
under "missing"; its metric then counts nothing from it. The totals are
written to TRACE_JSON when the CLI returns; the exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.distinct = defaultdict(set)
        self._depth = defaultdict(int)
        self._stages_open = 0
        self._stage_start = 0.0
        self.stage_covered = 0.0
        self.missing = []

    def wrap(self, target, metric, *, timed=True, stage=False, key=None):
        """Replace the function at `target` ("module.name" or
        "module.Class.name" under mlca_trends) by a wrapper that counts
        calls under `metric` and, if timed, adds the outermost call's
        duration to it. `stage` spans count as attributed time inside a
        `pipeline.run` span. `key` maps the call's arguments to a value
        whose distinct count is kept."""
        module, *path, attr = target.split(".")
        try:
            owner = importlib.import_module(f"mlca_trends.{module}")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        tracer = self

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls[metric] += 1
                return fn(*args, **kwargs)

            setattr(owner, attr, counted)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[metric] += 1
            if key is not None:
                tracer.distinct[metric].add(key(*args, **kwargs))
            outer = tracer._depth[metric] == 0
            tracer._depth[metric] += 1
            start = perf_counter()
            if stage:
                tracer._open_stage(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stage:
                    tracer._close_stage(end)
                tracer._depth[metric] -= 1
                if outer:
                    tracer.seconds[metric] += end - start

        setattr(owner, attr, wrapper)

    def _open_stage(self, now):
        if self._stages_open == 0:
            self._stage_start = now
        self._stages_open += 1

    def _close_stage(self, now):
        self._stages_open -= 1
        if self._stages_open == 0 and self._depth["pipeline.run"] > 0:
            self.stage_covered += now - self._stage_start

    def report(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
            "stage_covered": self.stage_covered,
            "missing": self.missing,
        }


# Stage functions: (target, metric). Each is also a pipeline stage span.
STAGES = (
    ("pipeline.load_bundle", "pipeline.load_bundle"),
    ("cli.load_bundle", "pipeline.load_bundle"),
    ("pipeline.fit_bridge_stage", "pipeline.bridge_stage"),
    ("pipeline.estimate_stage", "pipeline.estimate_stage"),
    ("pipeline.impact_stage", "pipeline.impact_stage"),
    ("pipeline.trend_stage", "pipeline.trend_stage"),
    ("pipeline._scenario_from_rows", "pipeline.scenario"),
    ("pipeline._write_csv", "pipeline.write"),
    ("pipeline.write_scenario_csv", "pipeline.write"),
    ("cli.write_scenario_csv", "pipeline.write"),
    ("cli.serialize_card_table", "pipeline.write"),
    ("cli.serialize_systems_table", "pipeline.write"),
)


def install(tracer: Tracer) -> None:
    # Import the whole CLI before wrapping anything, so that a name one
    # module imports from another is bound to the original function and
    # each call passes through one wrapper.
    importlib.import_module("mlca_trends.cli")
    for target, metric in STAGES:
        tracer.wrap(target, metric, stage=True)
    tracer.wrap("cli.run_pipeline", "pipeline.run")
    tracer.wrap("cli.scenario_compare", "pipeline.run")

    tracer.wrap("pipeline.resolve_card_reference", "catalog.resolve",
                key=lambda query, *args, **kwargs: query)
    tracer.wrap("catalog.normalize_name", "catalog.normalize_name", timed=False)
    tracer.wrap("lca.normalize_name", "catalog.normalize_name", timed=False)
    tracer.wrap("pipeline.merge_catalogs", "catalog.merge")
    tracer.wrap("pipeline.parse_systems_table", "systems.parse")
    tracer.wrap("pipeline.estimate_gpu_hours", "estimation.estimate_gpu_hours", timed=False)
    tracer.wrap("pipeline.fit_bridge", "estimation.fit_bridge")
    tracer.wrap("pipeline.system_impact", "lca.system_impact")
    tracer.wrap("lca.ServerProfileTable.select", "lca.server_select", timed=False)
    tracer.wrap("pipeline.exp_trend", "stats.exp_trend")
    tracer.wrap("stats.shapiro_wilk", "stats.shapiro_wilk")


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from mlca_trends import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(), handle, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
