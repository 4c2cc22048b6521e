"""Metamorphic relations of `report`: two runs of `run_pipeline` on a table
and on a transformed copy of it, compared file by file.

- Row order. Shuffling the systems rows leaves trends.csv,
  embodied_shares.csv and coverage.csv byte-identical, and the scenario
  file's trend rows too. estimates.csv, impacts.csv and the scenario points
  hold the same lines in the new order. bridge.json keeps its model and
  counts; its diagnostics depend on the residuals' order.
- Duplication. A renamed copy of every row leaves each trend row's slope,
  intercept, growth factor, CAGR and doubling time bit-identical, as well as
  the bridge's intercept, slope and performance ratio and the embodied
  shares' min, median, mean and max: math.fsum of a doubled sample is
  exactly twice the sum. The counts and n's double.
"""

import csv
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from mlca_trends.pipeline import RunConfig, run_pipeline
from tests.test_acceptance import _write_big_dataset

# Derandomized and without an example database, so every run draws the same
# tables; a few small tables keep the module within a few seconds.
METAMORPHIC = settings(max_examples=4, deadline=None, derandomize=True, database=None)
tables = st.tuples(st.integers(min_value=200, max_value=2000),
                   st.integers(min_value=0, max_value=2**32 - 1))
RATIO = 0.1
SCENARIO = "scenario_0.1.csv"
RATES = ("slope_per_year", "intercept", "growth_factor", "cagr_pct", "doubling_time_years")


def _report(tmp_path, label: str, header, rows) -> dict[str, str]:
    """Every file of a report over these systems rows, by name."""
    systems = tmp_path / f"{label}.csv"
    with systems.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([header, *rows])
    out = tmp_path / label
    run = run_pipeline(RunConfig(systems=systems, out=out, scenario_ratio=RATIO), "report")
    return {name: (out / name).read_text(encoding="utf-8") for name in run.output_files}


def _runs(tmp_path, size, seed, transform) -> tuple[dict, dict]:
    """The report files of a drawn table and of its transformed rows."""
    source = tmp_path / "source.csv"
    _write_big_dataset(source, n=size, seed=seed)
    with source.open(newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    return _report(tmp_path, "a", header, rows), _report(tmp_path, "b", header, transform(rows))


def _trend_rows(text: str) -> list[dict[str, str]]:
    return [row for row in csv.DictReader(text.splitlines()) if row["kind"] == "trend"]


@METAMORPHIC
@given(tables)
def test_row_order_leaves_every_result_in_place(tmp_path_factory, table):
    size, seed = table

    def shuffled(rows):
        rows = list(rows)
        random.Random(seed).shuffle(rows)
        return rows

    a, b = _runs(tmp_path_factory.mktemp("order"), size, seed, shuffled)
    assert a.keys() == b.keys()
    for name in ("coverage.csv", "trends.csv", "embodied_shares.csv"):
        assert a[name] == b[name], name
    for name in ("estimates.csv", "impacts.csv", SCENARIO):
        head_a, *lines_a = a[name].splitlines()
        head_b, *lines_b = b[name].splitlines()
        assert head_a == head_b and sorted(lines_a) == sorted(lines_b), name
    assert _trend_rows(a[SCENARIO]) == _trend_rows(b[SCENARIO])
    bridge_a, bridge_b = json.loads(a["bridge.json"]), json.loads(b["bridge.json"])
    assert bridge_a["model"] == bridge_b["model"]
    assert bridge_a["counts"] == bridge_b["counts"]


@METAMORPHIC
@given(tables)
def test_duplicated_rows_keep_every_fitted_rate(tmp_path_factory, table):
    size, seed = table
    a, b = _runs(tmp_path_factory.mktemp("twice"), size, seed,
                 lambda rows: rows + [[f"{row[0]}-copy", *row[1:]] for row in rows])
    for name in ("trends.csv", SCENARIO):
        trends_a, trends_b = _trend_rows(a[name]), _trend_rows(b[name])
        assert [row["series"] for row in trends_a] == [row["series"] for row in trends_b]
        for row_a, row_b in zip(trends_a, trends_b):
            assert [row_a[k] for k in RATES] == [row_b[k] for k in RATES], (name, row_a["series"])
            if not row_a["series"].startswith("card_"):
                assert int(row_b["n_used"]) == 2 * int(row_a["n_used"])
    model_a = json.loads(a["bridge.json"])["model"]
    model_b = json.loads(b["bridge.json"])["model"]
    if model_a is not None:
        for key in ("intercept", "slope", "performance_ratio"):
            assert model_a[key] == model_b[key], key
        assert model_b["n_observations"] == 2 * model_a["n_observations"]
    shares_a, shares_b = (list(csv.DictReader(f["embodied_shares.csv"].splitlines()))
                          for f in (a, b))
    for row_a, row_b in zip(shares_a, shares_b, strict=True):
        for key in ("min", "median", "mean", "max"):
            assert row_a[key] == row_b[key], (row_a["metric"], key)
        assert int(row_b["n"]) == 2 * int(row_a["n"])
