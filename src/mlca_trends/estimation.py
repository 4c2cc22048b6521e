"""Training GPU-hour estimation.

Two estimators: the direct product duration x quantity, and the compute-based
quotient FLOP / (best peak FLOP/s x 3600). The best peak is the maximum of
the single, half, and tensor precision peaks; fp64 never enters. On systems
where both estimators apply, the log-log bridge regression calibrates the
compute-based estimate: log(h_direct) = a + b*log(h_flop), and exp(-a) is the
implied constant performance ratio (achieved / peak throughput).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .catalog import CardReference, CardSpec
from .errors import DegenerateDataError, EstimationError, MissingPeakError
from .intervals import EstimateInterval
from .stats import DiagnosticReport, RegressionResult, diagnostics, wls_fit

__all__ = [
    "PEAK_FIELDS",
    "GpuHoursEstimate",
    "BridgeModel",
    "best_peak",
    "gpu_hours_direct",
    "gpu_hours_from_flop",
    "detect_anomalies",
    "fit_bridge",
    "estimate_gpu_hours",
]

# fp64 is deliberately absent: double precision does not bound ML training
# throughput and would distort the estimate downward.
PEAK_FIELDS = ("peak_fp32", "peak_fp16", "peak_tensor")

_SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class GpuHoursEstimate:
    """GPU-hours with provenance and a candidate-card interval.

    per_card maps candidate card names to their individual values when the
    estimate is compute-based; direct estimates do not depend on the card.
    """

    value: float
    method: str  # direct | flop_based | flop_based_bridged
    interval: EstimateInterval
    per_card: tuple[tuple[str, float], ...] | None = None

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError(f"GPU-hours must be > 0, got {self.value}")
        if self.method not in ("direct", "flop_based", "flop_based_bridged"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class BridgeModel:
    """OLS of log(direct GPU-h) on log(compute-based GPU-h), natural logs.
    The F-test p-value and the diagnostics are computed from `fit` when read."""

    intercept: float
    slope: float
    intercept_se: float
    slope_se: float
    adj_r2: float
    f_statistic: float
    f_df: tuple[int, int]
    n_observations: int
    performance_ratio: float  # exp(-intercept); ~fraction of peak achieved
    fit: RegressionResult = field(repr=False, compare=False)
    log_flop_hours: np.ndarray = field(repr=False, compare=False)  # the fit's x

    @property
    def f_pvalue(self) -> float:
        return self.fit.f_pvalue

    @cached_property
    def diagnostics(self) -> DiagnosticReport | None:
        """Residual diagnostics; None when the residuals carry too little
        variation to test (a numerically perfect fit)."""
        try:
            return diagnostics(self.log_flop_hours, self.fit.residuals)
        except DegenerateDataError:
            return None

    def apply(self, flop_hours: float) -> float:
        """Calibrated GPU-hours: exp(a) * h^b."""
        return math.exp(self.intercept) * flop_hours**self.slope


def best_peak(card: CardSpec) -> float:
    """Maximum available peak among fp32/fp16/tensor, in FLOP/s."""
    peaks = [getattr(card, f) for f in PEAK_FIELDS if getattr(card, f) is not None]
    if not peaks:
        raise MissingPeakError(
            f"card {card.name!r} has no usable peak field (fp32/fp16/tensor)"
        )
    return max(peaks)


def gpu_hours_direct(duration_hours: float, quantity: int) -> GpuHoursEstimate:
    """duration x quantity; the most reliable estimate when both are known."""
    if duration_hours <= 0:
        raise EstimationError(f"duration must be > 0 hours, got {duration_hours}")
    if quantity < 1:
        raise EstimationError(f"hardware quantity must be >= 1, got {quantity}")
    value = duration_hours * quantity
    return GpuHoursEstimate(value=value, method="direct", interval=EstimateInterval.degenerate(value))


def gpu_hours_from_flop(flop: float, card: CardSpec) -> GpuHoursEstimate:
    """FLOP / (best peak x 3600) for one specific card.

    Underestimates real GPU-hours since hardware does not run at peak; the
    bridge regression corrects for that on average.
    """
    if flop <= 0:
        raise EstimationError(f"FLOP count must be > 0, got {flop}")
    value = flop / (best_peak(card) * _SECONDS_PER_HOUR)
    return GpuHoursEstimate(
        value=value,
        method="flop_based",
        interval=EstimateInterval.degenerate(value),
        per_card=((card.name, value),),
    )


def detect_anomalies(pairs, k: float = 3.0):
    """Split (system, h_direct, h_flop) pairs into clean and anomalous.

    A pair is anomalous when the system is flagged fine-tuned (the compute
    estimate then covers the base model, not the fine-tune) or when its
    log-ratio log(h_direct/h_flop) sits more than k MADs from the median
    ratio. Returns (clean, anomalous) where anomalous entries carry a reason;
    together they partition the input in order.
    """
    pairs = list(pairs)
    ratios = []
    for system, h1, h2 in pairs:
        if h1 <= 0 or h2 <= 0:
            raise EstimationError(
                f"both estimates must be > 0, got ({h1}, {h2}) for {getattr(system, 'name', system)!r}"
            )
        ratios.append(math.log(h1 / h2))
    clean, anomalous = [], []
    if not pairs:
        return clean, anomalous
    median = float(np.median(ratios))
    mad = float(np.median(np.abs(np.array(ratios) - median)))
    # Absolute guard keeps ulp-level noise in exact-ratio data from tripping
    # the zero-MAD case.
    threshold = k * mad + 1e-12 * max(1.0, abs(median))
    for pair, ratio in zip(pairs, ratios):
        system = pair[0]
        if getattr(system, "finetuned", False):
            anomalous.append((pair, "finetuned"))
        elif abs(ratio - median) > threshold:
            anomalous.append(
                (pair, f"log-ratio outlier: |{ratio:.4g} - median {median:.4g}| > {k}*MAD")
            )
        else:
            clean.append(pair)
    return clean, anomalous


def fit_bridge(clean_pairs) -> BridgeModel:
    """OLS of log(h_direct) on log(h_flop) over anomaly-free pairs.

    Natural logarithms throughout.
    """
    pairs = list(clean_pairs)
    if len(pairs) < 3:
        raise EstimationError(f"need at least 3 pairs to fit the bridge, got {len(pairs)}")
    if any(h1 <= 0 or h2 <= 0 for h1, h2 in pairs):
        raise EstimationError("all GPU-hour pairs must be positive")
    x = np.log([h2 for _, h2 in pairs])
    y = np.log([h1 for h1, _ in pairs])
    fit = wls_fit(x, y)
    return BridgeModel(
        intercept=fit.intercept,
        slope=fit.slope,
        intercept_se=float(fit.standard_errors[0]),
        slope_se=float(fit.standard_errors[1]),
        adj_r2=fit.adj_r2,
        f_statistic=fit.f_statistic,
        f_df=fit.f_df,
        n_observations=fit.n,
        performance_ratio=math.exp(-fit.intercept),
        fit=fit,
        log_flop_hours=x,
    )


def estimate_gpu_hours(
    system,
    card_ref: CardReference | None = None,
    bridge: BridgeModel | None = None,
    apply_bridge: bool = True,
) -> GpuHoursEstimate:
    """Combined estimation policy for one eligible system.

    Direct inputs always win. Compute-based estimates span every candidate
    card that exposes a usable peak (ambiguous names yield an interval) and
    are bridge-calibrated when apply_bridge is set.
    """
    if system.has_direct_inputs:
        return gpu_hours_direct(system.training_hours, system.hardware_quantity)
    if system.has_flop_inputs:
        if card_ref is None:
            raise EstimationError(
                f"system {system.name!r}: card reference required for compute-based estimation"
            )
        if apply_bridge and bridge is None:
            raise EstimationError("apply_bridge is set but no bridge model was provided")
        per_card = []
        for card in card_ref.candidates:
            try:
                hours = gpu_hours_from_flop(system.training_flop, card).value
            except MissingPeakError:
                if card is card_ref.reference:
                    raise
                continue  # non-reference candidate without peaks narrows the interval
            if apply_bridge:
                hours = bridge.apply(hours)
            per_card.append((card.name, hours))
        reference_hours = dict(per_card)[card_ref.reference.name]
        return GpuHoursEstimate(
            value=reference_hours,
            method="flop_based_bridged" if apply_bridge else "flop_based",
            interval=EstimateInterval.from_candidates(
                [h for _, h in per_card], reference_hours
            ),
            per_card=tuple(per_card),
        )
    raise EstimationError(
        f"system {system.name!r} has neither direct nor compute-based inputs; "
        f"eligibility filtering should have excluded it"
    )
