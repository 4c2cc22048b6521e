"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with -v -s for the full account).

Upstream snapshots of the public card/system databases are not redistributable
fixtures here, so snapshot-conditional checks run on their stated synthetic
substitutes and say so in their printed note.
"""

import csv
import datetime as dt
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mlca_trends.catalog import CARD_COLUMNS, CardReference, parse_card_table
from mlca_trends.cli import main
from mlca_trends.estimation import fit_bridge, gpu_hours_direct
from mlca_trends.lca import (
    IMPACT_COLUMNS,
    ElectricityMix,
    ImpactTable,
    LcaConstants,
    ServerProfile,
    amortized_cards,
    apply_ci_scenario,
    load_impact_factors,
    system_impact,
    training_energy,
    usage_impact,
)
from mlca_trends.pipeline import Run, RunConfig, default_data_path, trend_stage
from mlca_trends.stats import (
    breusch_pagan_studentized,
    durbin_watson,
    exp_trend,
    shapiro_wilk,
    wls_fit,
)
from mlca_trends.systems import SystemRecord, coverage_summary, eligible_systems
from tests.conftest import make_card


def _report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d}: PASS - {detail}")


def synthetic_bridge_pairs(seed: int, n: int = 87, sigma: float = 0.15):
    rng = np.random.default_rng(seed)
    x = rng.uniform(2.0, 14.0, n)
    y = 1.31 + 1.00 * x + rng.normal(0.0, sigma, n)
    return list(zip(np.exp(y), np.exp(x)))


def test_criterion_01_bridge_regression_recovery():
    """Synthetic substitute (the upstream shared pair data is not obtainable):
    (a, b) = (1.31, 1.00) with sigma = 0.15 noise over 100 seeds."""
    start = time.perf_counter()
    misses = 0
    intercepts, slopes, int_ses, slope_ses = [], [], [], []
    for seed in range(100):
        fit = fit_bridge(synthetic_bridge_pairs(seed)).fit
        intercepts.append(fit.intercept)
        slopes.append(fit.slope)
        int_ses.append(fit.standard_errors[0])
        slope_ses.append(fit.standard_errors[1])
        if (
            abs(fit.intercept - 1.31) > 3 * fit.standard_errors[0]
            or abs(fit.slope - 1.00) > 3 * fit.standard_errors[1]
        ):
            misses += 1
    elapsed = time.perf_counter() - start
    # 3 SE covers ~99.3% of seeds for a correct estimator; demand calibrated
    # per-seed coverage plus an unbiased ensemble mean.
    assert misses <= 3
    assert abs(np.mean(intercepts) - 1.31) <= 3 * np.mean(int_ses) / 10
    assert abs(np.mean(slopes) - 1.00) <= 3 * np.mean(slope_ses) / 10
    assert elapsed < 1.0
    _report(
        1,
        f"bridge recovery on synthetic substitute: {100 - misses}/100 seeds within "
        f"3 SE, mean intercept {np.mean(intercepts):.4f}, mean slope "
        f"{np.mean(slopes):.4f}, runtime {elapsed:.3f}s < 1s "
        f"(upstream pair data not obtainable; stated substitute used)",
    )


def test_criterion_02_performance_ratio_identity():
    fits = [fit_bridge(synthetic_bridge_pairs(seed)) for seed in (0, 1, 2)]
    h2 = np.geomspace(1.0, 1e6, 24)
    fits.append(fit_bridge(list(zip(math.e**1.31 * h2, h2))))
    for model in fits:
        assert model.performance_ratio == math.exp(-model.fit.intercept)
    fixture = fits[0]
    assert 0.25 <= fixture.performance_ratio <= 0.30
    _report(
        2,
        f"performance_ratio == exp(-intercept) exactly on 4 fits; synthetic "
        f"reference-parameter fixture ratio {fixture.performance_ratio:.4f} in [0.25, 0.30]",
    )


def _coverage_fixture():
    records = []
    for i in range(20):
        records.append(
            SystemRecord(
                name=f"R{i:02d}",
                publication_date=dt.date(2020, 1, 1),
                training_flop=1e20 if i % 2 == 0 else None,
                hardware_names=("V100",) if i % 3 == 0 else None,
                hardware_quantity=8 if i % 5 == 0 else None,
                training_hours=24.0 if i % 4 == 0 else None,
                confidence=("confident", "likely", "speculative", "unknown")[i % 4],
            )
        )
    return records


def test_criterion_03_coverage_oracle():
    summary = coverage_summary(_coverage_fixture())
    # hand-enumerated: flop on even i (10); hardware on i%3==0 (7);
    # both on i%6==0 (4); duration on i%4==0 (5); quantity on i%5==0 (4);
    # duration&quantity on i==0 (1); plus hardware still i==0 (1)
    assert summary.counts == (20, 10, 7, 4, 5, 4, 1, 1)
    by_conf = {k: tuple(v) for k, v in summary.by_confidence.items()}
    assert by_conf["confident"] == (5, 5, 2, 2, 5, 1, 1, 1)
    assert by_conf["likely"] == (5, 0, 1, 0, 0, 1, 0, 0)
    assert by_conf["speculative"] == (5, 5, 2, 2, 0, 1, 0, 0)
    assert by_conf["unknown"] == (5, 0, 2, 0, 0, 1, 0, 0)
    assert summary.percentages[1] == 50.0
    _report(
        3,
        "20-record synthetic coverage fixture matches hand-counted values exactly "
        "(July 2024 snapshot not obtainable; snapshot equality not exercised)",
    )


def test_criterion_04_exclusion_rules():
    rng = np.random.default_rng(99)
    # fixture with exactly 5 multi-hardware systems among 30
    fixture = []
    for i in range(30):
        multi = i < 5
        fixture.append(
            SystemRecord(
                name=f"S{i}",
                publication_date=dt.date(2021, 1, 1),
                training_flop=1e20,
                hardware_names=("V100", "TPU v3") if multi else ("V100",),
            )
        )
    eligible, excluded = eligible_systems(fixture)
    multi_excluded = [s for s, reason in excluded if reason == "multi-hardware"]
    assert len(multi_excluded) == 5
    assert len(eligible) == 25

    # partition property over 1000 random presence patterns
    for _ in range(1000):
        systems = []
        for j in range(int(rng.integers(0, 12))):
            systems.append(
                SystemRecord(
                    name=f"P{j}",
                    publication_date=dt.date(2021, 1, 1),
                    training_flop=1e20 if rng.random() < 0.5 else None,
                    hardware_names=(
                        ("V100", "TPU v3") if rng.random() < 0.1 else ("V100",)
                    ) if rng.random() < 0.6 else None,
                    hardware_quantity=8 if rng.random() < 0.5 else None,
                    training_hours=24.0 if rng.random() < 0.5 else None,
                )
            )
        eligible, excluded = eligible_systems(systems)
        assert len(eligible) + len(excluded) == len(systems)
        assert {id(s) for s in eligible} | {id(s) for s, _ in excluded} == {
            id(s) for s in systems
        }
    _report(
        4,
        "multi-hardware fixture excludes exactly its 5 multi-hardware systems; "
        "partition property held on 1000 random presence patterns "
        "(snapshot count not obtainable)",
    )


def test_criterion_05_statistics_unit_suite():
    start = time.perf_counter()

    # WLS with unit weights equals an independently coded OLS to 1e-10
    rng = np.random.default_rng(17)
    x = rng.uniform(-3, 3, 60)
    y = 0.8 + 2.5 * x + rng.normal(size=60)
    fit = wls_fit(x, y, np.ones(60))
    slope_oracle = float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2))
    intercept_oracle = float(y.mean() - slope_oracle * x.mean())
    assert abs(fit.intercept - intercept_oracle) < 1e-10
    assert abs(fit.slope - slope_oracle) < 1e-10

    # Durbin-Watson exact cases
    assert durbin_watson([1.0, -1.0, 1.0, -1.0])[0] == 3.0
    assert durbin_watson([2.0, 2.0, 2.0, 2.0])[0] == 0.0

    # studentized BP statistic equals n when e^2 is exactly linear in x
    xs = np.linspace(1.0, 2.0, 45)
    stat, _ = breusch_pagan_studentized(xs, np.sqrt(2.0 * xs + 1.0))
    assert stat == pytest.approx(45.0, rel=1e-9)

    # Shapiro-Wilk power and size over 200 seeded runs each
    reject_exp = sum(
        shapiro_wilk(np.random.default_rng(s).exponential(size=100))[1] < 0.01
        for s in range(200)
    )
    accept_norm = sum(
        shapiro_wilk(np.random.default_rng(10_000 + s).normal(size=100))[1] > 0.05
        for s in range(200)
    )
    assert reject_exp / 200 >= 0.95
    assert accept_norm / 200 >= 0.90

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        5,
        f"WLS==OLS at 1e-10, DW exact (3.0, 0.0), BP stat==n, SW exponential "
        f"rejection {reject_exp/2:.1f}% >= 95%, normal acceptance {accept_norm/2:.1f}% "
        f">= 90%, runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_06_lca_arithmetic_oracles():
    constants = LcaConstants()
    server = ServerProfile(gpus_per_server=4, cpus_per_server=2, cpu_tdp_w=150.0)

    energy = training_energy(400.0, make_card(tdp_w=300.0), server, constants)
    assert energy == pytest.approx(165.0, rel=5e-7)

    amortized = 150.0 * amortized_cards(8, 1000.0, constants)
    assert amortized == pytest.approx(91.3242009132, rel=5e-7)

    scenario_ci = apply_ci_scenario(400.0, 0.25, 2021)
    assert scenario_ci == pytest.approx(225.0, rel=5e-7)

    _report(
        6,
        f"desk oracles reproduced to 6 significant figures: {energy:.6g} kWh, "
        f"{amortized:.6g} kg amortized, {scenario_ci:.6g} g/kWh scenario",
    )


def test_criterion_07_embodied_adpe_dominance(profile_table, default_constants):
    factors = load_impact_factors(default_data_path("impact_factors.json"))
    mixes = {"XX": ElectricityMix("XX", 475.0, 1e-9)}
    rng = np.random.default_rng(21)
    shares = []
    for i in range(100):
        card = make_card(
            "C",
            die_area_mm2=float(rng.uniform(80, 900)),
            memory_gb=float(rng.uniform(1, 141)),
            tdp_w=float(rng.uniform(25, 700)),
        )
        sys = SystemRecord(
            name=f"S{i}",
            publication_date=dt.date(2012 + int(rng.integers(0, 12)), 1, 1),
            countries=("XX",),
            hardware_names=("C",),
            training_hours=float(rng.uniform(1, 13_000)),
            hardware_quantity=int(rng.integers(1, 30_000)),
        )
        est = gpu_hours_direct(sys.training_hours, sys.hardware_quantity)
        ref = CardReference("C", (card,), card)
        values, _ = system_impact(sys, est, ref, mixes, profile_table, factors,
                                  default_constants)
        result = dict(zip(IMPACT_COLUMNS, values, strict=True))
        shares.append(100.0 * result["embodied_adpe_ref"] / result["adpe_kgsb_ref"])
    assert min(shares) >= 99.0
    _report(
        7,
        f"with electricity ADPe intensity 1e-9 kgSb/kWh, embodied ADPe share in "
        f"[{min(shares):.2f}%, {max(shares):.2f}%] over 100 fixture systems (>= 99%); "
        f"exact quartile table depends on the reference factor set and is reported, "
        f"not asserted",
    )


def _scenario_fixture(tmp_path) -> RunConfig:
    """Post-2019 systems whose footprints grow exactly 4x/year; zero embodied
    factors so the footprint is purely usage GWP."""
    cards = tmp_path / "cards.csv"
    with cards.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CARD_COLUMNS)
        writer.writerow(
            ["Test Card", "NVIDIA", "2018-01-01", "600", "7", "32", "HBM2",
             "1000", "", "1e13", "", ""]
        )
    systems = tmp_path / "systems.csv"
    with systems.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["name", "publication_date", "training_flop", "hardware_names",
             "hardware_quantity", "training_hours", "countries", "confidence",
             "finetuned"]
        )
        for k in range(6):
            writer.writerow(
                [f"Grow{k}", f"{2019 + k}-01-01", "", "Test Card", "1",
                 str(1000.0 * 4.0**k), "XX", "confident", "false"]
            )
    mixes = tmp_path / "mixes.csv"
    mixes.write_text(
        "country,carbon_intensity_g_per_kwh,adpe_kgsb_per_kwh\nXX,400,0\nWLD,475,0\n",
        encoding="utf-8",
    )
    factors = tmp_path / "factors.json"
    zero = {"gwp_kg": 0, "adpe_kgsb": 0, "source": "zero fixture"}
    factors.write_text(
        json.dumps({k: zero for k in
                    ("logic_per_cm2", "memory_per_gb", "board_base", "cpu_production")}),
        encoding="utf-8",
    )
    return RunConfig(
        out=tmp_path / "out", cards=cards, cards_extra=None, systems=systems,
        mixes=mixes, factors=factors,
    )


def test_criterion_08_scenario_comparison(tmp_path):
    config = _scenario_fixture(tmp_path)

    real, scenario = Run(config._replace(scenario_ratio=0.0)).scenario
    real_pts = sorted(zip(real.labels, real.values))
    scen_pts = sorted(zip(scenario.labels, scenario.values))
    assert real_pts == scen_pts
    assert real.n_excluded == scenario.n_excluded

    real, scenario = Run(config._replace(scenario_ratio=0.25)).scenario
    gf_real = real.fit.growth_factor
    gf_scenario = scenario.fit.growth_factor
    assert gf_real == pytest.approx(4.0, rel=1e-9)
    assert gf_scenario / gf_real == pytest.approx(0.75, rel=0.02)
    _report(
        8,
        f"ratio 0 gives identical series; on exact 4x/year synthetic footprints the "
        f"scenario growth factor is {gf_scenario:.4f} = {gf_scenario/gf_real:.4f} x "
        f"real ({gf_real:.4f}), matching the analytic 0.75 within 2% "
        f"(snapshot 16-vs-21 exclusion counts not obtainable)",
    )


def test_criterion_09_trend_suite():
    doubling = [(dt.date(2015 + k, 1, 1), 2.0**k) for k in range(6)]
    fit = exp_trend(doubling)
    assert fit.cagr_pct == pytest.approx(100.0, rel=1e-9)
    assert fit.doubling_time_years == pytest.approx(1.0, rel=1e-9)

    cards, errors = parse_card_table(
        default_data_path("cards_nvidia_workstation.csv"), "techpowerup"
    )
    assert errors == []
    factors = load_impact_factors(default_data_path("impact_factors.json"))
    no_impacts = ImpactTable(*([] for _ in ImpactTable._fields))
    memory = [s for s in trend_stage(cards, factors, [], no_impacts)
              if s.name == "card_memory_size"]
    memory_fit = memory[0].fit
    assert 25.0 <= memory_fit.cagr_pct <= 35.0
    _report(
        9,
        f"annual doubling returns CAGR 100% and doubling time 1.0y exactly; "
        f"memory-size CAGR on the bundled {len(cards)}-card catalog is "
        f"{memory_fit.cagr_pct:.2f}% in [25%, 35%]",
    )


def _write_big_dataset(path: Path, n: int = 1000, seed: int = 404) -> None:
    rng = np.random.default_rng(seed)
    hardware_pool = [
        "V100", "A100", "H100", "Tesla P100 PCIe 16 GB", "TPU v3", "TPU v4",
        "GeForce GTX 1080 Ti", "L40", "RTX A6000", "A30", "Tesla T4",
        "Instinct MI250X",
    ]
    countries_pool = ["USA", "CHN", "GBR", "FRA", "DEU", "CAN", "JPN", "KOR"]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["name", "publication_date", "training_flop", "hardware_names",
             "hardware_quantity", "training_hours", "countries", "confidence",
             "finetuned"]
        )
        for i in range(n):
            year = int(rng.integers(2012, 2025))
            month = int(rng.integers(1, 13))
            day = int(rng.integers(1, 28))
            flop = f"{10 ** rng.uniform(18, 25):.6g}" if rng.random() < 0.6 else ""
            roll = rng.random()
            if roll < 0.70:
                hardware = hardware_pool[int(rng.integers(len(hardware_pool)))]
            elif roll < 0.72:
                hardware = "V100;TPU v3"
            elif roll < 0.74:
                hardware = "Custom ASIC 9000"
            else:
                hardware = ""
            quantity = str(int(10 ** rng.uniform(0, 4.3))) if rng.random() < 0.6 else ""
            hours = f"{10 ** rng.uniform(0, 3.7):.6g}" if rng.random() < 0.4 else ""
            c_roll = rng.random()
            if c_roll < 0.8:
                countries = countries_pool[int(rng.integers(len(countries_pool)))]
            elif c_roll < 0.9:
                picks = rng.choice(countries_pool, size=2, replace=False)
                countries = ";".join(picks)
            else:
                countries = ""
            confidence = ("confident", "likely", "speculative", "unknown")[
                int(rng.integers(4))
            ]
            finetuned = "true" if rng.random() < 0.03 else "false"
            writer.writerow(
                [f"Synthetic-{i:04d}", f"{year:04d}-{month:02d}-{day:02d}", flop,
                 hardware, quantity, hours, countries, confidence, finetuned]
            )


def test_criterion_10_end_to_end_determinism_and_performance(tmp_path, capsys):
    systems_path = tmp_path / "synthetic_systems.csv"
    _write_big_dataset(systems_path, n=1000)

    durations = []
    for run_dir in ("run_a", "run_b"):
        start = time.perf_counter()
        code = main(["report", "--systems", str(systems_path), "--out", str(tmp_path / run_dir)])
        durations.append(time.perf_counter() - start)
        assert code == 0
    capsys.readouterr()

    files_a = sorted((tmp_path / "run_a").iterdir())
    files_b = sorted((tmp_path / "run_b").iterdir())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), f"{pa.name} differs between runs"
    assert max(durations) < 10.0
    _report(
        10,
        f"report on a 1000-system synthetic dataset: runs took "
        f"{durations[0]:.2f}s/{durations[1]:.2f}s (< 10s) and produced "
        f"byte-identical outputs ({len(files_a)} files)",
    )
