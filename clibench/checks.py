"""Output checks computed apart from the program.

Nothing here imports `mlca_trends`. The checks read the generated inputs
with the csv module, apply the method's rules as the README states them,
and compare with what the CLI wrote. Each check returns a list of failure
messages; an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import re
from pathlib import Path

import numpy as np

VENDOR_PREFIXES = {"nvidia", "amd", "google", "huawei", "cerebras", "intel", "graphcore"}
PEAKS = ("peak_fp32", "peak_fp16", "peak_tensor")
SCENARIO_BASE_YEAR = 2019
REL = 1e-9  # outputs are printed with 12 significant digits


def norm(name: str) -> str:
    """Card-name key: case, punctuation and a leading vendor word ignored."""
    tokens = re.sub(r"[^\w\s]|_", " ", name.lower()).split()
    while tokens and tokens[0] in VENDOR_PREFIXES:
        tokens = tokens[1:]
    return " ".join(tokens)


def read_rows(path: Path) -> list[dict]:
    with Path(path).open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _close(actual: float, expected: float, rel: float = REL) -> bool:
    return abs(actual - expected) <= rel * max(abs(expected), 1e-300)


def _num(cell: str) -> float:
    return float(cell) if cell else math.nan


class Catalog:
    """Card names, release dates and peaks of the merged catalog.

    Shared cards take each absent field from the second table; overrides
    replace the merged value. Order: primary, second-only, extra.
    """

    def __init__(self, primary, second=None, extra=None, overrides=None, plausibility=None):
        merged: dict[str, dict] = {}
        for row in read_rows(primary):
            merged[norm(row["name"])] = dict(row)
        workstation = len(merged)
        if second is not None:
            for row in read_rows(second):
                key = norm(row["name"])
                if key in merged:
                    for field, value in row.items():
                        if not merged[key][field]:
                            merged[key][field] = value
                else:
                    merged[key] = dict(row)
                    workstation += 1
        if overrides is not None:
            for row in read_rows(overrides):
                if row["field"] == "release_date":
                    merged[norm(row["name"])]["release_date"] = row["value"]
        self.cards = list(merged.values())
        if extra is not None:
            self.cards += read_rows(extra)
        self.workstation = workstation
        self.keys = [norm(c["name"]) for c in self.cards]
        self._tokens = [k.split() for k in self.keys]
        self.plausibility = {}
        if plausibility is not None:
            data = json.loads(Path(plausibility).read_text(encoding="utf-8"))
            self.plausibility = {norm(k): [norm(s) for s in v] for k, v in data.items()}
        self._resolved: dict[str, tuple] = {}

    def resolve(self, query: str):
        """(candidates, reference) for a hardware string, or None when no
        card matches. Exact names win; otherwise every card whose name holds
        the query's words contiguously is a candidate. The reference is the
        first plausibility entry among them, else the earliest release."""
        if query in self._resolved:
            return self._resolved[query]
        nq = norm(query)
        found = [c for c, k in zip(self.cards, self.keys) if k == nq]
        if not found:
            q = nq.split()
            found = [
                c for c, t in zip(self.cards, self._tokens)
                if any(t[i:i + len(q)] == q for i in range(len(t) - len(q) + 1))
            ]
        result = None
        if nq and found:
            by_key = {norm(c["name"]): c for c in found}
            reference = next((by_key[p] for p in self.plausibility.get(nq, []) if p in by_key), None)
            if reference is None:
                reference = min(found, key=lambda c: (c["release_date"], norm(c["name"])))
            result = (found, reference)
        self._resolved[query] = result
        return result


def best_peak(card: dict) -> float | None:
    peaks = [float(card[f]) for f in PEAKS if card[f]]
    return max(peaks) if peaks else None


def _split(cell: str) -> list[str]:
    return [p.strip() for p in cell.replace(";", ",").split(",") if p.strip()]


def expected_counts(systems_path: Path) -> dict:
    """Eligibility and coverage counts recomputed from the systems table.

    multi-hardware: more than one distinct hardware name. Eligible: not
    multi-hardware and either duration and quantity (direct inputs) or
    FLOP and hardware (compute inputs). Otherwise insufficient-data.
    """
    counts = dict.fromkeys(
        ["systems_eligible", "excluded_multi_hardware", "excluded_insufficient_data"], 0
    )
    cov = dict.fromkeys(
        ["systems", "flop", "hardware", "flop_and_hardware", "duration", "quantity",
         "duration_and_quantity", "duration_quantity_hardware"], 0
    )
    for row in read_rows(systems_path):
        hw = _split(row["hardware_names"])
        f, h = bool(row["training_flop"]), bool(hw)
        d, q = bool(row["training_hours"]), bool(row["hardware_quantity"])
        for key, present in (("systems", True), ("flop", f), ("hardware", h),
                             ("flop_and_hardware", f and h), ("duration", d), ("quantity", q),
                             ("duration_and_quantity", d and q),
                             ("duration_quantity_hardware", d and q and h)):
            cov[key] += present
        if len(set(hw)) > 1:
            counts["excluded_multi_hardware"] += 1
        elif (d and q) or (f and h):
            counts["systems_eligible"] += 1
        else:
            counts["excluded_insufficient_data"] += 1
    return {"summary": counts, "coverage": cov}


def check_counts(out: Path, summary: dict, systems_path: Path, merge: dict) -> list[str]:
    failures = []
    expected = expected_counts(systems_path)
    for key, value in {**expected["summary"], **merge}.items():
        if summary["counts"].get(key) != value:
            failures.append(f"count {key}: got {summary['counts'].get(key)}, expected {value}")
    with (out / "coverage.csv").open(newline="", encoding="utf-8") as handle:
        number = next(r for r in csv.reader(handle) if r[0] == "number")
    if [int(v) for v in number[1:]] != list(expected["coverage"].values()):
        failures.append(f"coverage.csv number row {number[1:]} != {list(expected['coverage'].values())}")
    return failures


def check_estimates(out: Path, systems_path: Path, catalog: Catalog) -> list[str]:
    """Direct rows equal duration x quantity; compute-based rows equal
    exp(a)*(flop/(max peak*3600))^b for the reference card, with
    [min, max] the envelope over every candidate that has a peak."""
    failures = []
    bridge = json.loads((out / "bridge.json").read_text(encoding="utf-8"))["model"]
    systems = {r["name"]: r for r in read_rows(systems_path)}
    rows = read_rows(out / "estimates.csv")
    expected_names = []
    for name, s in systems.items():
        hw = _split(s["hardware_names"])
        direct = bool(s["training_hours"] and s["hardware_quantity"])
        if len(set(hw)) > 1 or not (direct or (s["training_flop"] and hw)):
            continue
        resolved = catalog.resolve(hw[0]) if len(set(hw)) == 1 else None
        if direct or (resolved and best_peak(resolved[1]) is not None):
            expected_names.append(name)
    if [r["system"] for r in rows] != expected_names:
        failures.append(f"estimates.csv lists {len(rows)} systems, expected {len(expected_names)}")

    for row in rows:
        s = systems.get(row["system"])
        lo, ref, hi = (float(row[k]) for k in ("gpu_hours_min", "gpu_hours_ref", "gpu_hours_max"))
        if not lo <= ref <= hi:
            failures.append(f"estimate {row['system']}: interval order {lo} {ref} {hi}")
        if s is None:
            failures.append(f"estimate for unknown system {row['system']}")
            continue
        if s["training_hours"] and s["hardware_quantity"]:
            value = f"{float(s['training_hours']) * int(float(s['hardware_quantity'])):.12g}"
            if row["method"] != "direct" or not row["gpu_hours_min"] == row["gpu_hours_ref"] == row["gpu_hours_max"] == value:
                failures.append(f"direct estimate {row['system']}: {row['gpu_hours_ref']} != {value}")
            continue
        found = catalog.resolve(_split(s["hardware_names"])[0])
        if found is None:
            failures.append(f"estimate {row['system']}: hardware does not resolve")
            continue
        flop = float(s["training_flop"])

        def hours(card):
            h = flop / (best_peak(card) * 3600.0)
            return h if bridge is None else math.exp(bridge["intercept"]) * h ** bridge["slope"]

        candidates, reference = found
        values = [hours(c) for c in candidates if best_peak(c) is not None]
        method = "flop_based" if bridge is None else "flop_based_bridged"
        if row["method"] != method:
            failures.append(f"estimate {row['system']}: method {row['method']} != {method}")
        for label, got, want in (("ref", ref, hours(reference)), ("min", lo, min(values)),
                                 ("max", hi, max(values))):
            if not _close(got, want):
                failures.append(f"estimate {row['system']} {label}: {got!r} != {want!r}")
    return failures


def check_impacts(out: Path) -> list[str]:
    """min <= ref <= max for each metric; embodied <= total for GWP, ADPe."""
    failures = []
    for row in read_rows(out / "impacts.csv"):
        for metric in ("energy_kwh", "gwp_kg", "adpe_kgsb"):
            lo, ref, hi = (float(row[f"{metric}_{k}"]) for k in ("min", "ref", "max"))
            if not lo <= ref <= hi:
                failures.append(f"impact {row['system']} {metric}: {lo} {ref} {hi}")
        for emb, total in (("embodied_gwp_ref", "gwp_kg_ref"), ("embodied_adpe_ref", "adpe_kgsb_ref")):
            if float(row[emb]) > float(row[total]):
                failures.append(f"impact {row['system']}: {emb} exceeds {total}")
    return failures


def check_scenario(out: Path, ratio: float) -> list[str]:
    """scenario = emb + (real - emb) * (1 - r)^max(0, year - 2019) for every
    post-2019 system; the real series repeats impacts.csv."""
    failures = []
    impacts = {r["system"]: r for r in read_rows(out / "impacts.csv")}
    post = {n for n, r in impacts.items() if int(r["date"][:4]) >= SCENARIO_BASE_YEAR}
    rows = [r for r in read_rows(out / f"scenario_{ratio:.12g}.csv") if r["kind"] == "point"]
    for series in ("real", "scenario"):
        names = {r["system"] for r in rows if r["series"] == series}
        if names != post:
            failures.append(f"scenario {series} series has {len(names)} systems, expected {len(post)}")
    for row in rows:
        imp = impacts.get(row["system"])
        if imp is None:
            continue
        real, emb = float(imp["gwp_kg_ref"]), float(imp["embodied_gwp_ref"])
        if row["series"] == "real":
            want = real
        else:
            n = max(0, int(row["date"][:4]) - SCENARIO_BASE_YEAR)
            want = emb + (real - emb) * (1.0 - ratio) ** n
        if abs(float(row["gwp_kg"]) - want) > REL * real:
            failures.append(f"scenario {row['series']} {row['system']}: {row['gwp_kg']} != {want!r}")
    return failures


def _fractional_year(date: str) -> float:
    d = dt.date.fromisoformat(date)
    return d.year + (d.timetuple().tm_yday - 1) / 365.25


def check_trends(out: Path) -> list[str]:
    """growth = exp(slope), doubling = ln 2 / slope, n_used/n_excluded match
    the points, every series with three positive points has a trend row,
    and each OLS series matches numpy.polyfit on its own points."""
    failures = []
    points: dict[str, list] = {}
    trends: dict[str, dict] = {}
    for row in read_rows(out / "trends.csv"):
        if row["kind"] == "point":
            points.setdefault(row["series"], []).append(row)
        else:
            trends[row["series"]] = row
    for series, pts in points.items():
        values = [(_fractional_year(p["date"]), float(p["value"])) for p in pts]
        kept = [(x, v) for x, v in values if v > 0]
        trend = trends.get(series)
        if trend is None:
            if len(kept) >= 3:
                failures.append(f"trend {series}: no trend row for {len(kept)} positive points")
            continue
        slope = float(trend["slope_per_year"])
        if (int(trend["n_used"]), int(trend["n_excluded"])) != (len(kept), len(values) - len(kept)):
            failures.append(f"trend {series}: n_used/n_excluded {trend['n_used']}/{trend['n_excluded']}"
                            f" != {len(kept)}/{len(values) - len(kept)}")
        if not _close(float(trend["growth_factor"]), math.exp(slope)):
            failures.append(f"trend {series}: growth_factor != exp(slope)")
        doubling = _num(trend["doubling_time_years"])
        if slope > 0 and not _close(doubling, math.log(2.0) / slope):
            failures.append(f"trend {series}: doubling_time != ln2/slope")
        if slope <= 0 and not math.isnan(doubling):
            failures.append(f"trend {series}: doubling_time {doubling} for slope {slope}")
        if trend["weighting"] == "ols" and len(kept) >= 3:
            b, a = np.polyfit([x for x, _ in kept], np.log([v for _, v in kept]), 1)
            if not (_close(slope, b, 1e-6) and _close(float(trend["intercept"]), a, 1e-6)):
                failures.append(f"trend {series}: OLS ({slope}, {trend['intercept']}) != polyfit ({b}, {a})")
    for series in trends.keys() - points.keys():
        failures.append(f"trend {series}: trend row without points")
    return failures


def check_report(out: Path, summary: dict, systems: Path, catalog: Catalog,
                 merge: dict, ratio: float | None) -> list[str]:
    """All checks of one `report` output directory."""
    failures = check_counts(out, summary, systems, merge)
    failures += check_estimates(out, systems, catalog)
    failures += check_impacts(out)
    failures += check_trends(out)
    if ratio is not None:
        failures += check_scenario(out, ratio)
    return failures
