"""Property tests of the model's invariants: every interval keeps
min <= reference <= max, embodied impacts never exceed totals, and a larger
carbon-intensity reduction ratio never raises a footprint nor takes it below
its embodied part."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlca_trends.catalog import CardReference
from mlca_trends.estimation import GpuHoursEstimate
from mlca_trends.intervals import EstimateInterval
from mlca_trends.lca import (
    ElectricityMix,
    LcaConstants,
    apply_ci_scenario,
    load_impact_factors,
    load_mix_table,
    load_server_profiles,
    scenario_gwp,
    system_impact,
)
from mlca_trends.pipeline import default_data_path
from mlca_trends.systems import SystemRecord
from tests.conftest import make_card

# Derandomized and without an example database, so every run draws the same
# examples and the suite stays deterministic.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# Ratios span [0, 1]; those above 0.25 warn that they leave the explored range.
pytestmark = pytest.mark.filterwarnings("ignore:reduction ratio .* explored range")

MIXES = load_mix_table(default_data_path("electricity_mixes.csv"))
FACTORS = load_impact_factors(default_data_path("impact_factors.json"))
SERVERS = load_server_profiles(default_data_path("server_profiles.json"))
CONSTANTS = LcaConstants()

positive = st.floats(min_value=1e-3, max_value=1e7, allow_nan=False, allow_infinity=False)
ratios = st.floats(min_value=0.0, max_value=1.0)

# One candidate card: a name prefix that picks a server-profile rule (or the
# default), die area, memory, TDP and the GPU-hours estimated on it.
candidate = st.tuples(
    st.sampled_from(["Card", "GeForce", "Instinct", "TPU"]),
    st.floats(min_value=10.0, max_value=1000.0),
    st.floats(min_value=1.0, max_value=200.0),
    st.floats(min_value=10.0, max_value=1000.0),
    positive,
)


@st.composite
def impact_cases(draw):
    """(system, estimate, card reference) for one training run whose
    candidate cards, countries, quantity and estimation method vary."""
    drawn = draw(st.lists(candidate, min_size=1, max_size=4))
    cards = [
        make_card(f"{prefix} {i}", die_area_mm2=die, memory_gb=memory, tdp_w=tdp)
        for i, (prefix, die, memory, tdp, _) in enumerate(drawn)
    ]
    reference = draw(st.sampled_from(cards))
    hours = {card.name: h for card, (*_, h) in zip(cards, drawn)}
    countries = draw(st.none() | st.lists(st.sampled_from(sorted(MIXES)), min_size=1,
                                           max_size=3, unique=True).map(tuple))
    system = SystemRecord(
        name="Sys",
        publication_date=dt.date(draw(st.integers(2012, 2026)), 6, 1),
        hardware_names=(reference.name,),
        hardware_quantity=draw(st.none() | st.integers(1, 20_000)),
        countries=countries,
    )
    if draw(st.booleans()):  # compute-based: one GPU-hour value per candidate
        estimate = GpuHoursEstimate(
            value=hours[reference.name],
            method="flop_based",
            interval=EstimateInterval.from_candidates(hours.values(), hours[reference.name]),
            per_card=tuple(hours.items()),
        )
    else:  # direct: the same GPU-hours on every candidate
        value = hours[reference.name]
        estimate = GpuHoursEstimate(value, "direct", EstimateInterval.degenerate(value))
    return system, estimate, CardReference("Q", tuple(cards), reference)


def _impact(case, mixes=MIXES):
    return system_impact(*case, mixes, SERVERS, FACTORS, CONSTANTS)


@PROPERTY
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1), st.data())
def test_candidate_envelope_holds_its_reference(values, data):
    reference = data.draw(st.sampled_from(values))
    interval = EstimateInterval.from_candidates(values, reference)
    assert interval.min <= interval.reference <= interval.max


@PROPERTY
@given(impact_cases())
def test_impact_intervals_ordered_and_embodied_within_total(case):
    impact = _impact(case)
    for interval in (impact.energy_kwh, impact.gwp_kg, impact.adpe_kgsb):
        assert interval.min <= interval.reference <= interval.max
    assert impact.embodied_ref.gwp_kg <= impact.total_ref.gwp_kg
    assert impact.embodied_ref.adpe_kgsb <= impact.total_ref.adpe_kgsb


@PROPERTY
@given(impact_cases(), ratios)
def test_scenario_gwp_equals_impacts_under_reduced_mixes(case, ratio):
    year = case[0].publication_date.year
    reduced = {
        code: ElectricityMix(code, apply_ci_scenario(mix.carbon_intensity_g_per_kwh, ratio, year),
                             mix.adpe_kgsb_per_kwh)
        for code, mix in MIXES.items()
    }
    assert scenario_gwp(_impact(case), ratio) == _impact(case, reduced).gwp_kg.reference


@PROPERTY
@given(impact_cases(), ratios, ratios)
def test_scenario_footprint_does_not_rise_with_the_ratio(case, r1, r2):
    low, high = sorted((r1, r2))
    impact = _impact(case)
    assert impact.embodied_ref.gwp_kg <= scenario_gwp(impact, high) <= scenario_gwp(impact, low)
