"""Property tests of the model's invariants: every interval keeps
min <= reference <= max, embodied impacts never exceed totals, and a larger
carbon-intensity reduction ratio never raises a footprint nor takes it below
its embodied part. The series files' memoized date cells equal the cells
formatted afresh. A fit does not depend on the order of its points."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlca_trends.catalog import CardReference
from mlca_trends.estimation import GpuHoursEstimate
from mlca_trends.inputs import format_cell
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
from mlca_trends.pipeline import _date_cells, default_data_path, impact_stage
from mlca_trends.stats import exp_trend, to_fractional_year, wls_fit
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
    """The one-row ImpactTable of impact_stage over the case."""
    system, estimate, card_ref = case
    table, skipped = impact_stage([(system, card_ref, estimate)], mixes, SERVERS, FACTORS, CONSTANTS)
    assert not skipped
    return table


def _scenario(table, ratio) -> float:
    """scenario_gwp of the table's one row."""
    return scenario_gwp(table.energy_kwh_ref[0], table.embodied_gwp_ref[0], table.mix_ref[0],
                        table.date[0].year, ratio)


def _restated(system, estimate, card_ref):
    """(intervals as (min, ref, max) of energy, GWP and ADPe, embodied_ref as
    (GWP, ADPe)), restated in scalars from the formulas of lca.py's
    docstrings, in their operation order; every drawn card has the fields
    the model needs."""
    c = CONSTANTS
    amortizable = c.lifespan_hours * c.avg_lifetime_utilization
    countries = [code.strip().upper() for code in (system.countries or ("WLD",))]
    hours = dict(estimate.per_card or ((card.name, estimate.value) for card in card_ref.candidates))
    quantity = system.hardware_quantity
    totals, embodied = {}, {}
    for card in card_ref.candidates:
        h = hours[card.name]
        server = SERVERS.select(card)
        cpus_per_gpu = server.cpus_per_server / server.gpus_per_server
        gpu_wh = h * card.tdp_w * c.training_usage
        cpu_wh = h * cpus_per_gpu * server.cpu_tdp_w * c.training_usage
        energy = (gpu_wh + cpu_wh) * c.pue / 1000.0
        if quantity is None:
            share = h / amortizable
        else:
            share = quantity * min(1.0, h / quantity / amortizable)
        f = FACTORS
        per_card = [
            getattr(f.logic_per_cm2, k) * (card.die_area_mm2 / 100.0)
            + getattr(f.memory_per_gb, k) * card.memory_gb + getattr(f.board_base, k)
            + getattr(f.cpu_production, k) * cpus_per_gpu
            for k in ("gwp_kg", "adpe_kgsb")
        ]
        embodied[card.name] = (per_card[0] * share, per_card[1] * share)
        for code in countries:
            mix = MIXES[code]
            totals[(card.name, code)] = (
                energy,
                energy * mix.carbon_intensity_g_per_kwh / 1000.0 + embodied[card.name][0],
                energy * mix.adpe_kgsb_per_kwh + embodied[card.name][1],
            )
    ref = totals[(card_ref.reference.name, countries[0])]
    intervals = [
        (min(v[i] for v in totals.values()), ref[i], max(v[i] for v in totals.values()))
        for i in range(3)
    ]
    return intervals, embodied[card_ref.reference.name]


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
    for metric in ("energy_kwh", "gwp_kg", "adpe_kgsb"):
        low, ref, high = (getattr(impact, f"{metric}_{end}")[0] for end in ("min", "ref", "max"))
        assert low <= ref <= high
    assert 0 <= impact.embodied_gwp_ref[0] <= impact.gwp_kg_ref[0]
    assert 0 <= impact.embodied_adpe_ref[0] <= impact.adpe_kgsb_ref[0]


@PROPERTY
@given(impact_cases())
def test_system_impact_equals_the_scalar_model_bit_for_bit(case):
    impact = _impact(case)
    intervals, embodied_ref = _restated(*case)
    assert [tuple(getattr(impact, f"{metric}_{end}")[0] for end in ("min", "ref", "max"))
            for metric in ("energy_kwh", "gwp_kg", "adpe_kgsb")] == intervals
    assert (impact.embodied_gwp_ref[0], impact.embodied_adpe_ref[0]) == embodied_ref
    assert system_impact(*case, MIXES, SERVERS, FACTORS, CONSTANTS) == (
        tuple(column[0] for column in impact[2:-2]), impact.mix_ref[0])


@PROPERTY
@given(impact_cases(), ratios)
def test_scenario_gwp_equals_impacts_under_reduced_mixes(case, ratio):
    year = case[0].publication_date.year
    reduced = {
        code: ElectricityMix(code, apply_ci_scenario(mix.carbon_intensity_g_per_kwh, ratio, year),
                             mix.adpe_kgsb_per_kwh)
        for code, mix in MIXES.items()
    }
    assert _scenario(_impact(case), ratio) == _impact(case, reduced).gwp_kg_ref[0]


@PROPERTY
@given(impact_cases(), ratios, ratios)
def test_scenario_footprint_does_not_rise_with_the_ratio(case, r1, r2):
    low, high = sorted((r1, r2))
    impact = _impact(case)
    assert impact.embodied_gwp_ref[0] <= _scenario(impact, high) <= _scenario(impact, low)


# Any date from 1990 to 2100, plus the leap days and leap-year ends that a
# uniform draw rarely hits.
point_dates = st.one_of(
    st.dates(dt.date(1990, 1, 1), dt.date(2100, 12, 31)),
    st.sampled_from([dt.date(year, month, day) for year in range(1992, 2100, 4)
                     for month, day in ((2, 29), (12, 31))]),
)


@PROPERTY
@given(point_dates)
def test_memoized_date_cells_equal_fresh_ones(date):
    fresh = f"{date.isoformat()},{format_cell(round(to_fractional_year(date), 6))}"
    assert _date_cells(date) == fresh
    assert _date_cells(dt.date.fromordinal(date.toordinal())) == fresh  # a memo hit


@st.composite
def shuffled_points(draw):
    """(date, value, weight) points on 3 to 80 distinct dates, and a shuffle of them."""
    days = draw(st.lists(st.integers(0, 12_000), min_size=3, max_size=80, unique=True))
    points = [(dt.date(1995, 1, 1) + dt.timedelta(days=day),
               draw(st.floats(1e-6, 1e12)), draw(st.floats(1e-3, 1e3))) for day in days]
    return points, draw(st.permutations(points))


def _fit_floats(fit, points) -> tuple:
    """Every float of a wls_fit, its residuals keyed by their point."""
    residuals = sorted(zip(points, fit.residuals, fit.weights))
    return (*fit.coefficients, *fit.standard_errors, fit.r2, fit.adj_r2, fit.f_statistic,
            fit.f_pvalue, residuals)


def _trend_floats(trend) -> tuple:
    return (trend.slope_per_year, trend.intercept, trend.growth_factor, trend.cagr_pct,
            trend.doubling_time_years, *trend.regression.coefficients)


@PROPERTY
@given(shuffled_points())
def test_fits_are_bit_identical_whatever_the_order_of_the_points(case):
    results = []
    for points in case:
        x = [to_fractional_year(date) for date, _, _ in points]
        y = [value for _, value, _ in points]
        results.append((
            _fit_floats(wls_fit(x, y), points),
            _fit_floats(wls_fit(x, y, [weight for _, _, weight in points]), points),
            *(_trend_floats(exp_trend([(date, value) for date, value, _ in points], weighting))
              for weighting in ("ols", "feasible_wls")),
        ))
    assert results[0] == results[1]
