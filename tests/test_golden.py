"""Golden digests: the sha256 of every output file of a fixed set of runs, so
that a refactor changing one output byte fails here.

The runs are `report --scenario-ratio 0.1` on the bundled data and on the
1k-row synthetic table of `test_acceptance._write_big_dataset` (seed 404), and
each stage subcommand on the bundled data. The digests hold for the numpy and
scipy versions recorded beside them; under other versions the test skips,
because fits and the synthetic table may differ in their last digits.

Regenerate the file only for a deliberate output change, and say so in
CHANGES.md:

    PYTHONPATH=src python -m tests.test_golden
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from mlca_trends.cli import main
from tests.test_acceptance import _write_big_dataset

DIGESTS = Path(__file__).with_name("golden_digests.json")


def _versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def compute_digests(workdir: Path) -> dict[str, dict[str, str]]:
    """Run name -> {output file name: sha256} for every golden run."""
    table = workdir / "systems_1k.csv"
    _write_big_dataset(table, n=1000, seed=404)
    runs = {
        "report": ["report", "--scenario-ratio", "0.1"],
        "report_1k": ["report", "--scenario-ratio", "0.1", "--systems", str(table)],
        **{command: [command] for command in
           ("ingest", "coverage", "bridge", "estimate", "impacts", "trends")},
        "scenario": ["scenario", "--scenario-ratio", "0.1"],
    }
    digests = {}
    for name, argv in runs.items():
        out = workdir / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(out)]) == 0, f"golden run {name} failed"
        digests[name] = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
        }
    return digests


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("MLCA_TRENDS_CONFIG", raising=False)
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if golden["versions"] != _versions():
        pytest.skip(f"digests made with {golden['versions']}, installed {_versions()}")
    assert compute_digests(tmp_path) == golden["runs"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"versions": _versions(), "runs": compute_digests(Path(tmp))}
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
