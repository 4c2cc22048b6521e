"""Golden digests: the sha256 of every output file of a fixed set of runs, so
that a refactor changing one output byte fails here.

The runs are `report --scenario-ratio 0.1` on the bundled data and on the
1k-row synthetic table of `test_acceptance._write_big_dataset` (seed 404), and
each stage subcommand on the bundled data. The digests hold for the numpy
version recorded beside them, which draws the synthetic table; under another
version the tests skip. The program itself uses no numpy, and every sum in
its fits is exactly rounded, so no BLAS kernel or core count reaches them;
one test recomputes them with glibc's FMA code paths masked off.

Regenerate the file only for a deliberate output change, and say so in
CHANGES.md:

    PYTHONPATH=src python -m tests.test_golden

Regeneration prints `run/file` for each digest that changed, appeared or
disappeared, and nothing when none did.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mlca_trends.cli import main
from tests.test_acceptance import _write_big_dataset

DIGESTS = Path(__file__).with_name("golden_digests.json")
ROOT = Path(__file__).resolve().parents[1]


def _versions() -> dict[str, str]:
    return {"numpy": np.__version__}


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


def changed_digests(old: dict, new: dict) -> list[str]:
    """`run/file` for each file whose digest differs between two run maps,
    including files present in only one of them."""
    keys = {(run, name) for runs in (old, new) for run, files in runs.items() for name in files}
    return [f"{run}/{name}" for run, name in sorted(keys)
            if old.get(run, {}).get(name) != new.get(run, {}).get(name)]


def _golden() -> dict:
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if golden["versions"] != _versions():
        pytest.skip(f"digests made with {golden['versions']}, installed {_versions()}")
    return golden["runs"]


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("MLCA_TRENDS_CONFIG", raising=False)
    assert compute_digests(tmp_path) == _golden()


# glibc picks FMA builds of exp, log, erfc and pow where the CPU has FMA, and
# they round some arguments otherwise: exp of this one ends in ...dad with FMA
# and in ...dae without.
_NO_FMA = "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"
_CANARY = "math.exp(111.95129931589179).hex() == '0x1.6cf519801fdaep+161'"


def test_digests_hold_with_glibc_fma_paths_masked(tmp_path):
    golden = _golden()
    script = (
        "import json, math, sys\n"
        "from pathlib import Path\n"
        f"if not {_CANARY}:\n"
        "    print('null')\n"
        "    sys.exit()\n"
        "from tests.test_golden import compute_digests\n"
        "print(json.dumps(compute_digests(Path(sys.argv[1]))))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "MLCA_TRENDS_CONFIG"}
    env.update(GLIBC_TUNABLES=_NO_FMA, PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    digests = json.loads(result.stdout)
    if digests is None:
        pytest.skip(f"GLIBC_TUNABLES={_NO_FMA} left glibc's FMA exp in use (the canary did not move)")
    assert digests == golden


def test_changed_digests_names_each_changed_added_and_removed_file():
    old = {"a": {"x.csv": "1", "y.csv": "2"}, "b": {"z.csv": "3"}}
    assert changed_digests(old, old) == []
    new = {"a": {"x.csv": "1", "y.csv": "9", "w.csv": "4"}, "c": {"z.csv": "3"}}
    assert changed_digests(old, new) == ["a/w.csv", "a/y.csv", "b/z.csv", "c/z.csv"]


if __name__ == "__main__":
    previous = json.loads(DIGESTS.read_text(encoding="utf-8"))["runs"] if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"versions": _versions(), "runs": compute_digests(Path(tmp))}
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for changed in changed_digests(previous, payload["runs"]):
        print(changed)
