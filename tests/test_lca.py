import datetime as dt
import json
import math

import numpy as np
import pytest

from mlca_trends.catalog import CardReference, normalize_name, parse_card_table
from mlca_trends.errors import CannotEstimateError, LcaError, UnknownCountryError
from mlca_trends.estimation import estimate_gpu_hours, gpu_hours_direct
from mlca_trends.lca import (
    IMPACT_COLUMNS,
    ElectricityMix,
    ImpactFactors,
    ImpactVector,
    LcaConstants,
    ServerProfile,
    ServerProfileTable,
    amortized_cards,
    apply_ci_scenario,
    embodied_share_table,
    load_impact_factors,
    load_server_profiles,
    production_impact,
    scenario_gwp,
    system_impact,
    training_energy,
    usage_impact,
)
from mlca_trends.pipeline import default_data_path
from mlca_trends.systems import SystemRecord
from tests.conftest import make_card


def system(name="Sys", **kwargs):
    defaults = dict(publication_date=dt.date(2021, 1, 1))
    defaults.update(kwargs)
    return SystemRecord(name=name, **defaults)


def impact(*args):
    """system_impact's floats by their IMPACT_COLUMNS names, and its reference mix."""
    values, mix = system_impact(*args)
    return dict(zip(IMPACT_COLUMNS, values, strict=True)), mix


class TestImpactVector:
    def test_negative_components_rejected(self):
        for components in ((-1.0, 0.0), (0.0, -1e-300)):
            with pytest.raises(ValueError):
                ImpactVector(*components)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: ImpactVector(v, 1.0),
        lambda v: ElectricityMix("XX", v, 1e-8),
        lambda v: ElectricityMix("XX", 300.0, v),
        lambda v: LcaConstants(pue=v),
        lambda v: LcaConstants(lifespan_hours=v),
        lambda v: ServerProfile(gpus_per_server=v, cpus_per_server=2, cpu_tdp_w=150.0),
        lambda v: ServerProfile(gpus_per_server=4, cpus_per_server=v, cpu_tdp_w=150.0),
        lambda v: ServerProfile(gpus_per_server=4, cpus_per_server=2, cpu_tdp_w=v),
        lambda v: ImpactVector(1.0, v),
    ],
)
def test_records_reject_non_finite_values(build, value):
    with pytest.raises(ValueError):
        build(value)


def test_constants_reject_amortizable_hours_that_round_to_zero():
    with pytest.raises(ValueError, match="rounds to 0"):
        LcaConstants(lifespan_hours=5e-324)  # times the utilization of 0.5


class TestProductionImpact:
    def test_single_term_arithmetic(self):
        factors = ImpactFactors(
            logic_per_cm2=ImpactVector(gwp_kg=1.0),
            memory_per_gb=ImpactVector(),
            board_base=ImpactVector(),
            cpu_production=ImpactVector(),
        )
        impact = production_impact(make_card(die_area_mm2=600.0), factors)
        assert impact.gwp_kg == pytest.approx(6.0, rel=1e-12)
        assert impact.adpe_kgsb == 0.0

    def test_memory_linearity(self):
        factors = ImpactFactors(
            logic_per_cm2=ImpactVector(gwp_kg=1.5, adpe_kgsb=1e-5),
            memory_per_gb=ImpactVector(gwp_kg=0.3, adpe_kgsb=1e-6),
            board_base=ImpactVector(gwp_kg=60.0, adpe_kgsb=4e-3),
            cpu_production=ImpactVector(),
        )
        small = production_impact(make_card(memory_gb=16.0), factors)
        large = production_impact(make_card(memory_gb=32.0), factors)
        assert large.gwp_kg - small.gwp_kg == pytest.approx(16.0 * 0.3, rel=1e-12)
        assert large.adpe_kgsb - small.adpe_kgsb == pytest.approx(16.0 * 1e-6, rel=1e-12)

    def test_shipped_factor_file_frozen_values(self):
        # frozen hand evaluations of the bundled factor table on three cards
        factors = load_impact_factors(default_data_path("impact_factors.json"))
        v100 = make_card(die_area_mm2=815.0, memory_gb=16.0)
        a100 = make_card(die_area_mm2=826.0, memory_gb=80.0)
        k2000 = make_card(die_area_mm2=118.0, memory_gb=2.0)
        # gwp = 2.0*die/100 + 0.3*mem + 80
        assert production_impact(v100, factors).gwp_kg == pytest.approx(101.1, rel=1e-12)
        assert production_impact(a100, factors).gwp_kg == pytest.approx(120.52, rel=1e-12)
        assert production_impact(k2000, factors).gwp_kg == pytest.approx(82.96, rel=1e-12)
        # adpe = 6e-5*die/100 + 1e-5*mem + 5e-3
        assert production_impact(v100, factors).adpe_kgsb == pytest.approx(5.649e-3, rel=1e-9)

    def test_missing_fields_rejected(self, zero_factors):
        with pytest.raises(CannotEstimateError):
            production_impact(make_card(die_area_mm2=None), zero_factors)
        with pytest.raises(CannotEstimateError):
            production_impact(make_card(memory_gb=None), zero_factors)

    def test_overflow_cannot_be_estimated(self):
        factors = ImpactFactors(
            logic_per_cm2=ImpactVector(gwp_kg=1e308), memory_per_gb=ImpactVector(),
            board_base=ImpactVector(), cpu_production=ImpactVector(),
        )
        with pytest.raises(CannotEstimateError, match="overflows"):
            production_impact(make_card(die_area_mm2=815.0), factors)


def _with_entry_key(tmp_path, key, value):
    """A copy of the bundled factor file with `key` set to `value` in every entry."""
    data = json.loads(default_data_path("impact_factors.json").read_text(encoding="utf-8"))
    for entry in data.values():
        if isinstance(entry, dict):
            entry[key] = value
    path = tmp_path / "factors.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestLoadImpactFactors:
    def test_energy_kwh_keys_are_ignored(self, tmp_path):
        # production energy is embedded in the GWP/ADPe factors, never metered
        bundled = load_impact_factors(default_data_path("impact_factors.json"))
        assert "energy_kwh" not in default_data_path("impact_factors.json").read_text("utf-8")
        for value in (-1, "abc", 1e306):
            assert load_impact_factors(_with_entry_key(tmp_path, "energy_kwh", value)) == bundled

    @pytest.mark.parametrize("key", ImpactVector._fields)
    def test_non_finite_or_negative_factors_rejected(self, tmp_path, key):
        for value in (math.nan, math.inf, -1.0):
            with pytest.raises(LcaError, match=key):
                load_impact_factors(_with_entry_key(tmp_path, key, value))


class TestAmortization:
    def test_hand_arithmetic(self, default_constants):
        # 8 * 150 * (1000 / 13140) = 91.3242...
        embodied = 150.0 * amortized_cards(8, 1000.0, default_constants)
        assert embodied == pytest.approx(91.32420091324, rel=1e-11)

    def test_full_attribution_at_boundary(self, default_constants):
        boundary = default_constants.amortizable_hours  # 26280 * 0.5
        assert amortized_cards(3, boundary, default_constants) == 3.0

    def test_capped_beyond_boundary(self, default_constants):
        hours = 10 * default_constants.amortizable_hours
        assert amortized_cards(3, hours, default_constants) == 3.0

    def test_preconditions(self, default_constants):
        with pytest.raises(LcaError):
            amortized_cards(1, 0.0, default_constants)
        with pytest.raises(LcaError):
            amortized_cards(0, 10.0, default_constants)


class TestTrainingEnergy:
    def test_hand_arithmetic(self, workstation_server):
        constants = LcaConstants(pue=1.1)
        card = make_card(tdp_w=300.0)
        # (400*300 + 400*(2/4)*150) * 1.1 / 1000 = 165 kWh
        energy = training_energy(400.0, card, workstation_server, constants)
        assert energy == pytest.approx(165.0, rel=1e-12)

    def test_unit_case(self):
        constants = LcaConstants(pue=1.0)
        server = ServerProfile(gpus_per_server=4, cpus_per_server=1, cpu_tdp_w=1e-9)
        energy = training_energy(1.0, make_card(tdp_w=1000.0), server, constants)
        assert energy == pytest.approx(1.0, rel=1e-9)

    def test_linear_in_usage_hours_and_pue(self, workstation_server):
        card = make_card(tdp_w=300.0)
        full = training_energy(400.0, card, workstation_server, LcaConstants())
        half_usage = training_energy(
            400.0, card, workstation_server, LcaConstants(training_usage=0.5)
        )
        assert half_usage == pytest.approx(full / 2, rel=1e-12)
        double_hours = training_energy(800.0, card, workstation_server, LcaConstants())
        assert double_hours == pytest.approx(2 * full, rel=1e-12)
        higher_pue = training_energy(
            400.0, card, workstation_server, LcaConstants(pue=2.2)
        )
        assert higher_pue == pytest.approx(2 * full, rel=1e-12)

    def test_missing_tdp(self, workstation_server):
        with pytest.raises(CannotEstimateError):
            training_energy(1.0, make_card(tdp_w=None), workstation_server, LcaConstants())


class TestUsageImpact:
    def test_unit_conversion(self):
        gwp, adpe = usage_impact(100.0, ElectricityMix("XX", 400.0, 0.0))
        assert gwp == pytest.approx(40.0, rel=1e-12)
        assert adpe == 0.0

    def test_zero_energy(self):
        assert usage_impact(0.0, ElectricityMix("XX", 400.0, 1e-8)) == (0.0, 0.0)

    def test_hand_arithmetic(self):
        gwp, adpe = usage_impact(165.0, ElectricityMix("FRA", 57.0, 8e-9))
        assert gwp == pytest.approx(9.405, rel=1e-12)
        assert adpe == pytest.approx(165.0 * 8e-9, rel=1e-12)


class TestScenario:
    def test_base_year_unchanged(self):
        assert apply_ci_scenario(400.0, 0.25, 2019) == 400.0

    def test_two_years_compound(self):
        assert apply_ci_scenario(400.0, 0.25, 2021) == pytest.approx(225.0, rel=1e-12)

    def test_zero_ratio_identity(self):
        assert apply_ci_scenario(400.0, 0.0, 2023) == 400.0

    def test_pre_2019_unchanged(self):
        assert apply_ci_scenario(400.0, 0.25, 2012) == 400.0

    def test_nesting_property(self):
        for year in range(2019, 2028):
            nested = apply_ci_scenario(400.0, 0.1, year) * 0.9
            assert apply_ci_scenario(400.0, 0.1, year + 1) == pytest.approx(nested, rel=1e-12)

    def test_negative_ratio_rejected(self):
        with pytest.raises(LcaError):
            apply_ci_scenario(400.0, -0.1, 2020)

    @pytest.mark.parametrize("ratio", [1.5, 2.0, math.nan])
    def test_ratio_above_one_rejected(self, ratio):
        with pytest.raises(LcaError):
            apply_ci_scenario(400.0, ratio, 2020)

    def test_ratio_above_explored_range_warns(self):
        with pytest.warns(UserWarning, match="explored range"):
            apply_ci_scenario(400.0, 0.3, 2020)


@pytest.fixture
def oracle_factors():
    # production gwp per card = 20*5 + 1*16 + 34 = 150 exactly
    return ImpactFactors(
        logic_per_cm2=ImpactVector(gwp_kg=20.0, adpe_kgsb=1e-4),
        memory_per_gb=ImpactVector(gwp_kg=1.0, adpe_kgsb=1e-6),
        board_base=ImpactVector(gwp_kg=34.0, adpe_kgsb=4e-3),
        cpu_production=ImpactVector(gwp_kg=20.0, adpe_kgsb=1.6e-3),
    )


@pytest.fixture
def oracle_card():
    return make_card("Card X", die_area_mm2=500.0, memory_gb=16.0, tdp_w=300.0)


class TestSystemImpact:
    def test_degenerate_interval_single_candidate_single_country(
        self, oracle_card, oracle_factors, profile_table, simple_mixes, default_constants
    ):
        sys = system(training_hours=100.0, hardware_quantity=4, countries=("FRA",),
                     hardware_names=("Card X",))
        est = gpu_hours_direct(100.0, 4)
        ref = CardReference("Card X", (oracle_card,), oracle_card)
        result, _ = impact(sys, est, ref, simple_mixes, profile_table,
                           oracle_factors, default_constants)
        for metric in ("energy_kwh", "gwp_kg", "adpe_kgsb"):
            assert result[f"{metric}_min"] == result[f"{metric}_ref"] == result[f"{metric}_max"]

    def test_per_system_records_hold_no_instance_dict(
        self, oracle_card, oracle_factors, profile_table, simple_mixes, default_constants
    ):
        sys = system(training_hours=100.0, hardware_quantity=4, hardware_names=("Card X",))
        est = gpu_hours_direct(100.0, 4)
        ref = CardReference("Card X", (oracle_card,), oracle_card)
        result = system_impact(sys, est, ref, simple_mixes, profile_table,
                               oracle_factors, default_constants)
        # one record or more per system: slots keep a million of them small
        for record in (sys, est, est.interval, result, *result):
            assert not hasattr(record, "__dict__"), type(record)

    def test_two_country_interval_hand_oracle(
        self, oracle_card, oracle_factors, profile_table, simple_mixes, default_constants
    ):
        sys = system(training_hours=100.0, hardware_quantity=4,
                     countries=("FRA", "POL"), hardware_names=("Card X",))
        est = gpu_hours_direct(100.0, 4)
        ref = CardReference("Card X", (oracle_card,), oracle_card)
        result, _ = impact(sys, est, ref, simple_mixes, profile_table,
                           oracle_factors, default_constants)
        # energy: (400*300 + 400*0.5*150)*1.1/1000 = 165 kWh (both countries)
        assert result["energy_kwh_ref"] == pytest.approx(165.0, rel=1e-12)
        # embodied gwp: (150 + 0.5*20) * 4 * 100/13140 = 4.870624...
        embodied = 160.0 * 4 * 100.0 / 13140.0
        assert result["embodied_gwp_ref"] == pytest.approx(embodied, rel=1e-11)
        # usage gwp: 165*50/1000 = 8.25 (FRA, reference), 82.5 (POL, max)
        assert result["gwp_kg_ref"] == pytest.approx(8.25 + embodied, rel=1e-11)
        assert result["gwp_kg_min"] == result["gwp_kg_ref"]  # FRA is cheaper
        assert result["gwp_kg_max"] == pytest.approx(82.5 + embodied, rel=1e-11)

    def test_world_mix_fallback_when_no_country(
        self, oracle_card, oracle_factors, profile_table, simple_mixes, default_constants
    ):
        sys = system(training_hours=100.0, hardware_quantity=4, hardware_names=("Card X",))
        est = gpu_hours_direct(100.0, 4)
        ref = CardReference("Card X", (oracle_card,), oracle_card)
        result, _ = impact(sys, est, ref, simple_mixes, profile_table,
                           oracle_factors, default_constants)
        assert result["gwp_kg_ref"] == pytest.approx(
            165.0 * 475.0 / 1000.0 + 160.0 * 4 * 100.0 / 13140.0, rel=1e-11
        )

    def test_unknown_country_rejected(
        self, oracle_card, oracle_factors, profile_table, simple_mixes, default_constants
    ):
        sys = system(training_hours=1.0, hardware_quantity=1, countries=("ATLANTIS",),
                     hardware_names=("Card X",))
        est = gpu_hours_direct(1.0, 1)
        ref = CardReference("Card X", (oracle_card,), oracle_card)
        with pytest.raises(UnknownCountryError):
            system_impact(sys, est, ref, simple_mixes, profile_table,
                          oracle_factors, default_constants)

    def test_interval_ordering_over_random_fixtures(
        self, oracle_factors, profile_table, simple_mixes, default_constants
    ):
        rng = np.random.default_rng(42)
        countries = list(simple_mixes)
        for i in range(100):
            cards = [
                make_card(f"C{j}", die_area_mm2=float(rng.uniform(100, 900)),
                          memory_gb=float(rng.uniform(1, 96)),
                          tdp_w=float(rng.uniform(30, 700)),
                          peak_fp32=float(rng.uniform(1e12, 1e15)))
                for j in range(rng.integers(1, 4))
            ]
            ref = CardReference("C", tuple(cards), cards[int(rng.integers(len(cards)))])
            listed = tuple(rng.permutation(countries)[: rng.integers(1, 4)])
            sys = system(
                f"S{i}", countries=listed, hardware_names=("C",),
                training_flop=float(rng.uniform(1e18, 1e24)),
                hardware_quantity=int(rng.integers(1, 10_000)),
            )
            est = estimate_gpu_hours(sys, ref, None, apply_bridge=False)
            result, _ = impact(sys, est, ref, simple_mixes, profile_table,
                               oracle_factors, default_constants)
            for metric in ("energy_kwh", "gwp_kg", "adpe_kgsb"):
                assert result[f"{metric}_min"] <= result[f"{metric}_ref"] <= result[f"{metric}_max"]

    def test_gwp_monotone_in_carbon_intensity(
        self, oracle_card, oracle_factors, profile_table, default_constants
    ):
        sys = system(training_hours=50.0, hardware_quantity=8, countries=("XX",),
                     hardware_names=("Card X",))
        est = gpu_hours_direct(50.0, 8)
        ref = CardReference("Card X", (oracle_card,), oracle_card)
        previous = -1.0
        for ci in (0.0, 50.0, 200.0, 475.0, 900.0):
            mixes = {"XX": ElectricityMix("XX", ci, 1e-9)}
            result, _ = impact(sys, est, ref, mixes, profile_table,
                               oracle_factors, default_constants)
            assert result["gwp_kg_ref"] >= previous
            previous = result["gwp_kg_ref"]

    def test_scenario_ratio_scales_usage_gwp_only(
        self, oracle_card, oracle_factors, profile_table, simple_mixes, default_constants
    ):
        sys = system(training_hours=100.0, hardware_quantity=4, countries=("POL",),
                     hardware_names=("Card X",), publication_date=dt.date(2021, 6, 1))
        est = gpu_hours_direct(100.0, 4)
        ref = CardReference("Card X", (oracle_card,), oracle_card)
        real, mix = impact(sys, est, ref, simple_mixes, profile_table,
                           oracle_factors, default_constants)
        assert mix is simple_mixes["POL"]
        embodied = real["embodied_gwp_ref"]

        def scenario(ratio):
            return scenario_gwp(real["energy_kwh_ref"], embodied, mix, 2021, ratio)

        usage_real = real["gwp_kg_ref"] - embodied
        usage_reduced = scenario(0.25) - embodied
        assert usage_reduced == pytest.approx(usage_real * 0.75**2, rel=1e-11)
        assert scenario(0.0) == real["gwp_kg_ref"]
        with pytest.warns(UserWarning, match="explored range"):
            assert scenario(1.0) == embodied


class TestServerProfiles:
    def test_rule_matching_by_tokens(self, workstation_server):
        tpu_profile = ServerProfile(4, 2, 150.0)
        consumer = ServerProfile(2, 2, 150.0)
        table = ServerProfileTable(
            default=workstation_server,
            rules=(("tpu", tpu_profile), ("geforce", consumer)),
        )
        assert table.select(make_card("TPU v3")) is tpu_profile
        assert table.select(make_card("GeForce GTX 1080 Ti")) is consumer
        assert table.select(make_card("Tesla V100 PCIe 16 GB")) is workstation_server

    def test_memoized_select_is_the_first_matching_rule_for_every_bundled_card(self):
        table = load_server_profiles(default_data_path("server_profiles.json"))
        cards = [card for name, source in (("cards_nvidia_workstation.csv", "techpowerup"),
                                           ("cards_other.csv", "other"))
                 for card in parse_card_table(default_data_path(name), source)[0]]

        def first_match(card):
            words = normalize_name(card.name).split()
            for pattern, profile in table.rules:
                tokens = normalize_name(pattern).split()
                if any(words[i:i + len(tokens)] == tokens for i in range(len(words))):
                    return profile
            return table.default

        assert len(cards) > 80
        for _ in range(2):  # select is pure: a second pass picks the same profiles
            for card in cards:
                assert table.select(card) is first_match(card), card.name
        assert {table.select(card) for card in cards} != {table.default}


def shares_of(pairs):
    """embodied_share_table over (embodied, total) pairs of (GWP, ADPe) pairs,
    passed as its two pairs of columns."""
    embodied, totals = zip(*pairs)
    return embodied_share_table(tuple(zip(*embodied)), tuple(zip(*totals)))


class TestEmbodiedShares:
    def test_all_embodied_rows(self):
        pairs = [
            (ImpactVector(10.0, 1e-3), ImpactVector(10.0, 1e-3)) for _ in range(5)
        ]
        summaries, excluded = shares_of(pairs)
        for s in summaries:
            assert s.min == s.q1 == s.median == s.mean == s.q3 == s.max == 100.0
        assert excluded == 0

    def test_hand_built_shares(self):
        pairs = [
            (ImpactVector(10.0, 0.1), ImpactVector(100.0, 1.0)),
            (ImpactVector(20.0, 0.2), ImpactVector(100.0, 1.0)),
            (ImpactVector(30.0, 0.3), ImpactVector(100.0, 1.0)),
        ]
        summaries, _ = shares_of(pairs)
        gwp = summaries[0]
        assert (gwp.min, gwp.median, gwp.mean, gwp.max) == (10.0, 20.0, 20.0, 30.0)
        assert gwp.q1 == 15.0 and gwp.q3 == 25.0

    def test_zero_total_rows_excluded_and_reported(self):
        pairs = [
            (ImpactVector(10.0, 0.0), ImpactVector(100.0, 0.0)),
            (ImpactVector(20.0, 0.1), ImpactVector(100.0, 1.0)),
        ]
        summaries, excluded = shares_of(pairs)
        adpe = summaries[1]
        assert adpe.n == 1 and adpe.excluded == 1
        assert excluded == 1

    def test_metric_with_every_total_zero_summarized_as_nan(self):
        pairs = [(ImpactVector(1.0, 0.0), ImpactVector(2.0, 0.0))]
        (gwp, adpe), excluded = shares_of(pairs)
        assert (gwp.n, gwp.excluded, gwp.mean) == (1, 0, 50.0)
        assert adpe.metric == "adpe_kgsb" and (adpe.n, adpe.excluded, excluded) == (0, 1, 1)
        assert all(math.isnan(v) for v in (adpe.min, adpe.q1, adpe.median, adpe.mean,
                                            adpe.q3, adpe.max))

    def test_embodied_above_total_rejected(self):
        with pytest.raises(LcaError):
            shares_of([(ImpactVector(2.0, 0), ImpactVector(1.0, 0))])


def test_adpe_dominance_with_tiny_electricity_intensity(
    oracle_factors, profile_table, default_constants
):
    """Hardware production dominates ADPe when the mix's metal intensity is tiny."""
    mixes = {"XX": ElectricityMix("XX", 475.0, 1e-9)}
    rng = np.random.default_rng(11)
    for i in range(50):
        card = make_card(
            "C", die_area_mm2=float(rng.uniform(100, 900)),
            memory_gb=float(rng.uniform(1, 96)), tdp_w=float(rng.uniform(30, 700)),
        )
        sys = system(
            f"S{i}", countries=("XX",), hardware_names=("C",),
            training_hours=float(rng.uniform(1, 5000)),
            hardware_quantity=int(rng.integers(1, 20_000)),
        )
        est = gpu_hours_direct(sys.training_hours, sys.hardware_quantity)
        ref = CardReference("C", (card,), card)
        result, _ = impact(sys, est, ref, mixes, profile_table,
                           oracle_factors, default_constants)
        share = 100.0 * result["embodied_adpe_ref"] / result["adpe_kgsb_ref"]
        assert share >= 99.0
