"""Fuzz test of the command line. Whatever the subcommand and flags, and
however one cell of a bundled CSV or JSON input is mutated, `main()` returns
0, or prints one `error [stage]: …` line and returns 1. It never raises, and
a failed run leaves `--out` as it found it."""

import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mlca_trends.cli import main
from mlca_trends.pipeline import default_data_path

# Derandomized and without an example database, so every run draws the same
# examples and the suite stays deterministic.
FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)

INPUTS = {
    "--cards": "cards_nvidia_workstation.csv",
    "--cards-alt": "cards_wiki.csv",
    "--cards-extra": "cards_other.csv",
    "--overrides": "overrides.csv",
    "--systems": "systems_sample.csv",
    "--mixes": "electricity_mixes.csv",
    "--factors": "impact_factors.json",
    "--constants": "lca_constants.json",
    "--plausibility": "plausibility.json",
    "--server-profiles": "server_profiles.json",
}
SUBCOMMANDS = ["ingest", "coverage", "bridge", "estimate", "impacts", "trends", "scenario",
               "report"]
CSV_CELLS = ["", " ", "nan", "inf", "-inf", "-1", "0", "1e308", "1e-308", "1e400", "abc",
             "2099-12-31", "1899-01-01", "2021-02-30", "A100", "true", '"', "1,5", "é\x00"]
JSON_LEAVES = [None, True, False, "x", "", -1, 0, 1e308, float("nan"), float("inf"), [], {}]
# (flag, value): valid values and bad ones; every value parses, so argparse
# never exits and what is checked is how the run treats it.
OPTIONS = [
    *(("--scenario-ratio", v) for v in ["0", "0.1", "0.3", "1", "-0.1", "1.5", "nan", "-inf"]),
    *(("--gwp-floor", v) for v in ["0", "1e9", "-1", "nan", "inf"]),
    *(("--apply-bridge", v) for v in ["true", "false"]),
    *(("--seed", v) for v in ["-5", "123456789012345678901234567890"]),
]
ERROR_LINE = re.compile(r"error \[[a-z]+\]: \S")


def _leaves(node, path=()):
    """Paths to every value in a JSON document, containers included."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _leaves(child, (*path, key))


@st.composite
def mutated_inputs(draw):
    """(flag, file name, mutated text) for one bundled input with one cell
    (CSV) or one value or key (JSON) replaced or removed."""
    flag = draw(st.sampled_from(sorted(INPUTS)))
    name = INPUTS[flag]
    text = default_data_path(name).read_text(encoding="utf-8")
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        row = draw(st.integers(0, len(rows) - 1))
        col = draw(st.integers(0, len(rows[row])))  # one past the end adds a cell
        cell = draw(st.sampled_from(CSV_CELLS))
        rows[row][col:col + 1] = [cell]
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return flag, name, buffer.getvalue()
    document = json.loads(text)
    path = draw(st.sampled_from(list(_leaves(document))))
    value = draw(st.sampled_from(JSON_LEAVES + ["<delete>"]))
    if not path:
        return flag, name, json.dumps(value)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if value == "<delete>":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return flag, name, json.dumps(document)


def _snapshot(path: Path):
    if path.is_dir():
        return sorted((p.name, p.read_bytes()) for p in path.iterdir())
    return path.read_bytes() if path.exists() else None


@FUZZ
@given(
    mutated_inputs(),
    st.sampled_from(SUBCOMMANDS),
    st.lists(st.sampled_from(OPTIONS), max_size=2, unique_by=lambda option: option[0]),
    st.sampled_from(["fresh", "fresh", "nested", "file", "dir"]),
)
def test_main_exits_0_or_1_and_a_failure_leaves_out_as_it_was(
    mutated, command, options, out_kind
):
    flag, name, text = mutated
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / name).write_text(text, encoding="utf-8")
        argv = [command, f"{flag}={tmp / name}"]
        if flag in ("--cards-alt", "--overrides"):  # overrides apply only to a merge
            other = "--overrides" if flag == "--cards-alt" else "--cards-alt"
            argv.append(f"{other}={default_data_path(INPUTS[other])}")
        if command == "scenario" and "--scenario-ratio" not in dict(options):
            options = [*options, ("--scenario-ratio", "0.1")]
        argv += [f"{option}={value}" for option, value in options]
        out = tmp / ("a/b/out" if out_kind == "nested" else "out")
        if out_kind == "file":
            out.write_text("not a directory\n", encoding="utf-8")
        elif out_kind == "dir":
            out.mkdir()
            (out / "kept.txt").write_text("kept\n", encoding="utf-8")
        argv.append(f"--out={out}")
        before = _snapshot(out)

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)

        assert code in (0, 1), (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        assert not list(tmp.rglob(".out.*")), argv  # no staging directory is left
        if code == 1:
            lines = [line for line in stderr.getvalue().splitlines()
                     if not line.startswith("warning [")]
            assert len(lines) == 1 and ERROR_LINE.match(lines[0]), (argv, stderr.getvalue())
            assert _snapshot(out) == before, argv
            assert out_kind != "nested" or not (tmp / "a").exists(), argv
        else:
            assert out.is_dir() and len(list(out.iterdir())) > len(before or []), argv
            json.loads(stdout.getvalue())
