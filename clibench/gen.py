"""Seeded input generators for the CLI benchmark.

Every generator takes the seed as an argument and writes plain CSV/JSON
files in the schemas the `mlca-trends` CLI reads; the program only ever
sees these files. Each generator returns a small description of what it
built (sizes, distinct hardware strings, family sizes, expected merge
counts) that the output checks and the README rely on.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

CARD_COLUMNS = [
    "name", "vendor", "release_date", "die_area_mm2", "process_node_nm",
    "memory_gb", "memory_type", "tdp_w", "peak_fp64", "peak_fp32",
    "peak_fp16", "peak_tensor",
]
SYSTEM_COLUMNS = [
    "name", "publication_date", "training_flop", "hardware_names",
    "hardware_quantity", "training_hours", "countries", "confidence",
    "finetuned",
]
CONFIDENCE = ("confident", "likely", "speculative", "unknown")
COUNTRIES = ["USA", "CHN", "GBR", "FRA", "DEU", "CAN", "JPN", "KOR"]

# The hardware mix of the acceptance suite's big synthetic dataset: a dozen
# strings naming bundled cards, three of them ambiguous families.
MIX_HARDWARE = [
    "V100", "A100", "H100", "Tesla P100 PCIe 16 GB", "TPU v3", "TPU v4",
    "GeForce GTX 1080 Ti", "L40", "RTX A6000", "A30", "Tesla T4",
    "Instinct MI250X",
]


def _system_row(rng, name: str, hardware: str, present=None) -> list[str]:
    """Date, compute, quantity, duration, countries, confidence and
    fine-tune flag drawn as in the acceptance suite's big dataset.
    `present` fixes which of FLOP, quantity and duration are given instead
    of drawing it (60 %, 60 % and 40 % independently)."""
    year = int(rng.integers(2012, 2025))
    month = int(rng.integers(1, 13))
    day = int(rng.integers(1, 28))
    has_flop, has_quantity, has_hours = present or (None, None, None)
    flop = f"{10 ** rng.uniform(18, 25):.6g}" if _given(rng, has_flop, 0.6) else ""
    quantity = str(int(10 ** rng.uniform(0, 4.3))) if _given(rng, has_quantity, 0.6) else ""
    hours = f"{10 ** rng.uniform(0, 3.7):.6g}" if _given(rng, has_hours, 0.4) else ""
    c_roll = rng.random()
    if c_roll < 0.8:
        countries = COUNTRIES[int(rng.integers(len(COUNTRIES)))]
    elif c_roll < 0.9:
        countries = ";".join(rng.choice(COUNTRIES, size=2, replace=False))
    else:
        countries = ""
    confidence = CONFIDENCE[int(rng.integers(4))]
    finetuned = "true" if rng.random() < 0.03 else "false"
    return [name, f"{year:04d}-{month:02d}-{day:02d}", flop, hardware, quantity,
            hours, countries, confidence, finetuned]


def _given(rng, fixed, probability: float) -> bool:
    return rng.random() < probability if fixed is None else fixed


def exact_shuffle(rng, n: int, weights: dict) -> list:
    """n labels in the exact proportions of `weights` (largest remainder),
    in seeded random order. Exact counts keep the work a workload does
    nearly the same for every seed."""
    raw = {label: n * w / sum(weights.values()) for label, w in weights.items()}
    counts = {label: int(v) for label, v in raw.items()}
    by_remainder = sorted(raw, key=lambda label: counts[label] - raw[label])
    for label in by_remainder[: n - sum(counts.values())]:
        counts[label] += 1
    labels = [label for label, c in counts.items() for _ in range(c)]
    return [labels[i] for i in rng.permutation(n)]


def _write_rows(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_systems_mix(path: Path, n: int, seed: int) -> dict:
    """Systems table with the acceptance suite's mix: 70 % one of
    MIX_HARDWARE, 2 % two cards, 2 % an unknown ASIC, 26 % no hardware."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.70:
            hardware = MIX_HARDWARE[int(rng.integers(len(MIX_HARDWARE)))]
        elif roll < 0.72:
            hardware = "V100;TPU v3"
        elif roll < 0.74:
            hardware = "Custom ASIC 9000"
        else:
            hardware = ""
        rows.append(_system_row(rng, f"Synthetic-{i:05d}", hardware))
    _write_rows(path, SYSTEM_COLUMNS, rows)
    return {
        "systems": n,
        "distinct_hardware": len({r[3] for r in rows if r[3]}),
    }


_FORMS = ("SXM", "PCIe", "OAM", "NVL", "HGX", "MXM")
_MEMORIES = (16, 24, 32, 40, 48, 64, 80, 96, 128)


def _card_truth(rng, name: str, vendor: str) -> dict:
    year = int(rng.integers(2013, 2024))
    fp32 = float(f"{10 ** rng.uniform(12, 14):.5g}")
    fp16 = float(f"{fp32 * [1, 2, 4][int(rng.integers(3))]:.5g}")
    tensor = float(f"{fp16 * 4:.5g}") if rng.random() < 0.6 else None
    return {
        "name": name,
        "vendor": vendor,
        "release_date": f"{year:04d}-{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 28)):02d}",
        "die_area_mm2": float(int(rng.integers(100, 900))),
        "process_node_nm": float([28, 16, 12, 7, 5, 4][int(rng.integers(6))]),
        "memory_gb": float(_MEMORIES[int(rng.integers(len(_MEMORIES)))]),
        "memory_type": ["GDDR6", "HBM2", "HBM2e", "HBM3"][int(rng.integers(4))],
        "tdp_w": float(int(rng.integers(50, 800))),
        "peak_fp64": float(f"{fp32 / 2:.5g}") if rng.random() < 0.5 else None,
        "peak_fp32": fp32,
        "peak_fp16": fp16,
        "peak_tensor": tensor,
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


# Fields a projection may leave empty; fp32 and the production-model inputs
# (die area, memory, TDP) stay present in at least one table.
_DROPPABLE = ("memory_type", "peak_fp64", "peak_fp16", "peak_tensor", "process_node_nm")

# The wide catalog: N_FAMILIES families of 3 to 9 variants each and
# N_SINGLETONS cards with no family, 2,097 cards in all.
N_FAMILIES = 300
N_SINGLETONS = 300


def write_wide_catalog(directory: Path, n_systems: int, seed: int) -> dict:
    """A catalog of about two thousand cards and a table of n_systems systems.

    Cards come from one ground truth and are split into a primary and an
    overlapping second table (schema of CARD_COLUMNS). Some shared cards
    diverge on TDP or die area; the override table settles about half of
    those divergences. Half of the hardware-naming systems use a family
    name ("ZX017") that matches every variant of that family; the rest name
    one card exactly. Returns the construction counts the checks compare
    against.
    """
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)

    families: dict[str, list[str]] = {}
    truths = []
    sizes = [3 + f % 7 for f in range(N_FAMILIES)]  # 3..9 variants, fixed total
    for f, k in enumerate(rng.permutation(N_FAMILIES)):
        token = f"ZX{f:03d}"
        picks = rng.choice(len(_FORMS) * len(_MEMORIES), size=sizes[int(k)], replace=False)
        names = [
            f"Zeta {token} {_FORMS[int(p) // len(_MEMORIES)]} {_MEMORIES[int(p) % len(_MEMORIES)]} GB"
            for p in sorted(picks)
        ]
        families[token] = names
        truths.extend(_card_truth(rng, name, "Zeta") for name in names)
    for i in range(N_SINGLETONS):
        truths.append(_card_truth(rng, f"Yotta Y{i:04d} Pro", "Yotta"))

    placement = exact_shuffle(rng, len(truths), {"primary": 0.55, "second": 0.25, "both": 0.20})
    n_shared = placement.count("both")
    divergence = exact_shuffle(rng, n_shared, {"tdp_w": 0.15, "die_area_mm2": 0.15, None: 0.70})
    n_divergent = n_shared - divergence.count(None)
    divergence = iter(divergence)
    settled = iter(exact_shuffle(rng, n_divergent, {True: 0.5, False: 0.5}))
    primary, second, overrides = [], [], []
    for truth, where in zip(truths, placement):
        row_a, row_b = dict(truth), dict(truth)
        if where == "both":
            for field in _DROPPABLE:
                if rng.random() < 0.3:
                    (row_a if rng.random() < 0.5 else row_b)[field] = None
            field = next(divergence)
            if field is not None:
                row_b[field] = truth[field] + float(int(rng.integers(5, 60)))
                if next(settled):
                    overrides.append([truth["name"], {"tdp_w": "tdp", "die_area_mm2": "die_area"}[field],
                                      _cell(truth[field])])
        if where != "second":
            primary.append(row_a)
        if where != "primary":
            second.append(row_b)

    def card_rows(cards):
        return [[_cell(c[col]) for col in CARD_COLUMNS] for c in cards]

    extra = [_card_truth(rng, f"Omega Q{k:02d} Accelerator", "Omega") for k in range(12)]
    _write_rows(directory / "cards_primary.csv", CARD_COLUMNS, card_rows(primary))
    _write_rows(directory / "cards_second.csv", CARD_COLUMNS, card_rows(second))
    _write_rows(directory / "cards_extra.csv", CARD_COLUMNS, card_rows(extra))
    _write_rows(directory / "overrides.csv", ["name", "field", "value"], overrides)

    # Plausibility ranks two variants for a third of the families.
    plausibility = {}
    for (token, names), ranked in zip(families.items(),
                                      exact_shuffle(rng, N_FAMILIES, {True: 1, False: 2})):
        if ranked:
            plausibility[token] = [names[int(k)] for k in rng.choice(len(names), 2, replace=False)]
    (directory / "plausibility.json").write_text(
        json.dumps(plausibility, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    # Every (hardware kind, FLOP/quantity/duration presence) pair gets its
    # exact share of the rows.
    kinds = {"family": 0.48, "exact": 0.47, "two": 0.02, "none": 0.03}
    presence = {
        (f, q, h): (0.6 if f else 0.4) * (0.6 if q else 0.4) * (0.4 if h else 0.6)
        for f in (True, False) for q in (True, False) for h in (True, False)
    }
    layout = exact_shuffle(rng, n_systems, {
        (kind, flags): wk * wp for kind, wk in kinds.items() for flags, wp in presence.items()
    })
    tokens = list(families)
    all_names = [t["name"] for t in truths] + [c["name"] for c in extra]
    rows = []
    for i, (kind, flags) in enumerate(layout):
        if kind == "family":
            hardware = tokens[int(rng.integers(len(tokens)))]
        elif kind == "exact":
            hardware = all_names[int(rng.integers(len(all_names)))]
            if rng.random() < 0.25:
                hardware = hardware.upper()
        elif kind == "two":
            hardware = f"{tokens[int(rng.integers(len(tokens)))]};{all_names[int(rng.integers(len(all_names)))]}"
        else:
            hardware = ""
        rows.append(_system_row(rng, f"Wide-{i:04d}", hardware, flags))
    _write_rows(directory / "systems.csv", SYSTEM_COLUMNS, rows)

    family_sizes = [len(v) for v in families.values()]
    return {
        "cards_primary": len(primary),
        "cards_second": len(second),
        "cards_shared": n_shared,
        "cards_divergent": n_divergent,
        "overrides": len(overrides),
        "cards_workstation": len(truths),
        "cards_validated": n_shared - n_divergent,
        "cards_extra": len(extra),
        "families": len(families),
        "family_size_min": min(family_sizes),
        "family_size_max": max(family_sizes),
        "systems": n_systems,
        "distinct_hardware": len({r[3] for r in rows if r[3]}),
        "family_named_rows": sum(1 for r in rows if r[3] in families),
    }
