import datetime as dt
import math

import numpy as np
import pytest

from mlca_trends.catalog import CardReference
from mlca_trends.errors import EstimationError, MissingPeakError
from mlca_trends.estimation import (
    best_peak,
    detect_anomalies,
    estimate_gpu_hours,
    fit_bridge,
    flop_hours,
    gpu_hours_direct,
)
from mlca_trends.stats import diagnostics
from mlca_trends.systems import SystemRecord
from tests.conftest import make_card


def system(name="Sys", **kwargs):
    defaults = dict(publication_date=dt.date(2021, 1, 1))
    defaults.update(kwargs)
    return SystemRecord(name=name, **defaults)


class TestDirect:
    def test_product(self):
        est = gpu_hours_direct(240.0, 100)
        assert est.value == 24_000.0
        assert est.method == "direct"
        assert est.interval.min == est.interval.max == 24_000.0

    def test_identity(self):
        assert gpu_hours_direct(1.0, 1).value == 1.0

    def test_non_positive_rejected(self):
        with pytest.raises(EstimationError):
            gpu_hours_direct(0.0, 8)
        with pytest.raises(EstimationError):
            gpu_hours_direct(10.0, 0)

    def test_hours_past_the_float_range_rejected(self):
        with pytest.raises(EstimationError, match="finite"):
            gpu_hours_direct(1e10, 10**300)


class TestFromFlop:
    def test_hand_arithmetic(self):
        card = make_card(peak_fp32=1e14, peak_fp16=None, peak_tensor=None)
        # 1e21 / (1e14 * 3600) = 2777.77...
        assert flop_hours(1e21, card) == pytest.approx(2777.7777777778, rel=1e-10)

    def test_best_peak_prefers_tensor(self):
        card = make_card(peak_fp32=1e14, peak_tensor=4e14)
        assert flop_hours(1e21, card) == pytest.approx(694.4444444444, rel=1e-10)

    def test_fp64_never_used(self):
        card = make_card(peak_fp32=None, peak_fp16=None, peak_tensor=None, peak_fp64=1e14)
        with pytest.raises(MissingPeakError):
            best_peak(card)
        with pytest.raises(MissingPeakError):
            flop_hours(1e21, card)

    def test_antitone_in_peak_and_linear_in_flop(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p1, p2 = sorted(rng.uniform(1e13, 1e15, 2))
            flop = rng.uniform(1e20, 1e24)
            slow = flop_hours(flop, make_card(peak_fp32=p1))
            fast = flop_hours(flop, make_card(peak_fp32=p2))
            assert fast <= slow
            doubled = flop_hours(2 * flop, make_card(peak_fp32=p1))
            assert doubled == pytest.approx(2 * slow, rel=1e-12)

    def test_non_positive_flop_rejected(self):
        with pytest.raises(EstimationError):
            flop_hours(0.0, make_card())

    def test_hours_that_underflow_to_zero_rejected(self):
        with pytest.raises(EstimationError, match="finite"):
            flop_hours(1e-320, make_card())


class TestAnomalies:
    def test_constant_ratio_never_anomalous(self):
        pairs = [
            (system(f"S{i}"), 3.7 * h2, h2)
            for i, h2 in enumerate(np.geomspace(10, 1e6, 12))
        ]
        clean, anomalous = detect_anomalies(pairs)
        assert len(clean) == 12 and anomalous == []

    def test_single_outlier_flagged(self):
        pairs = [
            (system(f"S{i}"), 3.7 * h2, h2)
            for i, h2 in enumerate(np.geomspace(10, 1e6, 20))
        ]
        pairs.append((system("Weird"), 1e-4 * 500.0, 500.0))
        clean, anomalous = detect_anomalies(pairs)
        assert len(clean) == 20
        assert len(anomalous) == 1
        assert anomalous[0][0][0].name == "Weird"
        assert "outlier" in anomalous[0][1]

    def test_finetuned_flag_always_anomalous(self):
        pairs = [
            (system(f"S{i}"), 3.7 * h2, h2) for i, h2 in enumerate([10.0, 100.0, 1e3])
        ]
        pairs.append((system("Tuned", finetuned=True), 3.7 * 50.0, 50.0))
        clean, anomalous = detect_anomalies(pairs)
        assert len(clean) == 3
        assert anomalous[0][1] == "finetuned"

    def test_partition_preserved(self):
        rng = np.random.default_rng(5)
        pairs = [
            (system(f"S{i}", finetuned=bool(rng.random() < 0.2)),
             float(np.exp(rng.normal(3, 1))), 1.0)
            for i in range(40)
        ]
        clean, anomalous = detect_anomalies(pairs)
        assert len(clean) + len(anomalous) == 40

    def test_positive_estimates_required(self):
        with pytest.raises(EstimationError):
            detect_anomalies([(system(), 0.0, 1.0)])

    def test_a_quotient_outside_the_float_range_is_its_own_anomaly(self):
        pairs = [(system(f"S{i}"), 3.7 * h2, h2) for i, h2 in enumerate([10.0, 100.0, 1e3])]
        pairs += [(system("Zero"), 1e-320, 1e7), (system("Inf"), 1e300, 1e-300)]
        clean, anomalous = detect_anomalies(pairs)
        assert clean == pairs[:3]  # the median and MAD come from the three finite ratios
        assert [(pair[0].name, reason) for pair, reason in anomalous] == [
            (name, "direct/FLOP GPU-hour quotient outside the float range")
            for name in ("Zero", "Inf")
        ]
        # with no finite ratio at all every pair is still placed, none raises
        assert detect_anomalies(pairs[3:]) == ([], anomalous)


class TestBridge:
    def test_noiseless_recovery(self):
        h2 = np.geomspace(1.0, 1e6, 24)
        pairs = list(zip(math.e**1.31 * h2, h2))
        model = fit_bridge(pairs)
        assert model.fit.intercept == pytest.approx(1.31, abs=1e-9)
        assert model.fit.slope == pytest.approx(1.00, abs=1e-12)
        assert model.fit.adj_r2 == pytest.approx(1.0, abs=1e-12)
        assert model.performance_ratio == pytest.approx(math.exp(-1.31), rel=1e-9)

    def test_performance_ratio_identity(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 10, 30)
        pairs = list(zip(np.exp(1.0 + 0.9 * x + rng.normal(0, 0.3, 30)), np.exp(x)))
        model = fit_bridge(pairs)
        assert model.performance_ratio == math.exp(-model.fit.intercept)

    def test_recovery_within_3se_over_seeds(self):
        misses = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.uniform(2.0, 14.0, 87)
            y = 1.31 + 1.00 * x + rng.normal(0, 0.15, 87)
            model = fit_bridge(list(zip(np.exp(y), np.exp(x))))
            ta = abs(model.fit.intercept - 1.31) / model.fit.standard_errors[0]
            tb = abs(model.fit.slope - 1.00) / model.fit.standard_errors[1]
            misses += (ta > 3) or (tb > 3)
        # 3 SE is ~99.3% coverage per seed; a few misses in 100 is nominal
        assert misses <= 3

    def test_diagnostics_attached_on_noisy_fits(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 8, 50)
        pairs = list(zip(np.exp(1.3 + x + rng.normal(0, 0.2, 50)), np.exp(x)))
        model = fit_bridge(pairs)
        report = diagnostics(model.log_flop_hours, model.fit.residuals)
        assert report is not None
        w, p = report["shapiro_wilk"]
        assert 0 < w <= 1 and 0 <= p <= 1
        d, _ = report["durbin_watson"]
        assert 0 <= d <= 4

    def test_preconditions(self):
        with pytest.raises(EstimationError):
            fit_bridge([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(EstimationError):
            fit_bridge([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])


def reference(cards, ref_index=0, query="Q"):
    return CardReference(query_name=query, candidates=tuple(cards), reference=cards[ref_index])


class TestEstimatePolicy:
    def test_direct_wins_over_flop(self):
        sys = system(
            training_hours=240.0, hardware_quantity=100,
            training_flop=1e21, hardware_names=("Card X",),
        )
        ref = reference([make_card()])
        est = estimate_gpu_hours(sys, ref, bridge=None, apply_bridge=False)
        assert est.method == "direct"
        assert est.value == 24_000.0

    def test_bridge_multiplier_on_flop_only(self):
        h2 = np.geomspace(1.0, 1e6, 10)
        bridge = fit_bridge(list(zip(math.e**1.31 * h2, h2)))
        card = make_card(peak_fp32=1e21 / (1000.0 * 3600.0))  # h2 = exactly 1000
        sys = system(training_flop=1e21, hardware_names=("Card X",))
        est = estimate_gpu_hours(sys, reference([card]), bridge)
        # slope 1: bridging is the constant multiplier exp(1.31) = 1/performance_ratio
        assert est.method == "flop_based_bridged"
        assert est.value == pytest.approx(math.exp(1.31) * 1000.0, rel=1e-6)
        assert est.value == pytest.approx(1000.0 / bridge.performance_ratio, rel=1e-9)

    def test_bridged_hours_past_the_float_range_rejected(self):
        h2 = np.geomspace(1.0, 1e6, 10)
        bridge = fit_bridge(list(zip(h2**2, h2)))  # slope 2
        card = make_card(peak_fp32=1e14)
        sys = system(training_flop=1e14 * 3600.0 * 1e200, hardware_names=("Card X",))
        assert estimate_gpu_hours(sys, reference([card]), bridge, apply_bridge=False).value > 0
        with pytest.raises(EstimationError, match="bridged"):
            estimate_gpu_hours(sys, reference([card]), bridge)

    def test_raw_flop_estimate_when_bridge_off(self):
        card = make_card(peak_fp32=1e14)
        sys = system(training_flop=1e21, hardware_names=("Card X",))
        est = estimate_gpu_hours(sys, reference([card]), None, apply_bridge=False)
        assert est.method == "flop_based"
        assert est.value == pytest.approx(2777.7777777778, rel=1e-10)

    def test_ambiguous_card_interval_from_fixture_peaks(self):
        fast = make_card("A100 fast", peak_tensor=4e14, peak_fp32=None)
        slow = make_card("A100 slow", peak_tensor=2e14, peak_fp32=None)
        sys = system(training_flop=1e21, hardware_names=("A100",))
        est = estimate_gpu_hours(
            sys, reference([fast, slow], ref_index=0, query="A100"),
            None, apply_bridge=False,
        )
        # by hand: 1e21/(4e14*3600)=694.44 (fast), 1e21/(2e14*3600)=1388.89 (slow)
        assert est.interval.min == pytest.approx(694.4444444444, rel=1e-10)
        assert est.interval.max == pytest.approx(1388.8888888889, rel=1e-10)
        assert est.interval.reference == est.interval.min  # reference is the fast card
        assert est.interval.min <= est.interval.reference <= est.interval.max

    def test_candidate_without_peak_skipped_unless_reference(self):
        with_peak = make_card("Has peak", peak_fp32=1e14)
        without = make_card("No peak", peak_fp32=None)
        sys = system(training_flop=1e21, hardware_names=("Card",))
        est = estimate_gpu_hours(sys, reference([with_peak, without]), None, apply_bridge=False)
        assert est.per_card == (("Has peak", pytest.approx(2777.778, rel=1e-4)),)
        with pytest.raises(MissingPeakError):
            estimate_gpu_hours(
                sys, reference([with_peak, without], ref_index=1), None, apply_bridge=False
            )

    def test_neither_input_is_logic_fault(self):
        with pytest.raises(EstimationError, match="eligibility"):
            estimate_gpu_hours(system(), None, None, apply_bridge=False)

    def test_flop_route_requires_card(self):
        sys = system(training_flop=1e21, hardware_names=("Card X",))
        with pytest.raises(EstimationError, match="card reference"):
            estimate_gpu_hours(sys, None, None, apply_bridge=False)

    def test_bridge_required_when_applying(self):
        sys = system(training_flop=1e21, hardware_names=("Card X",))
        with pytest.raises(EstimationError, match="bridge"):
            estimate_gpu_hours(sys, reference([make_card()]), None, apply_bridge=True)
