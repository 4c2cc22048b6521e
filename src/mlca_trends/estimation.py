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
from array import array
from collections import namedtuple

from .catalog import CardReference, CardSpec
from .errors import EstimationError, MissingPeakError
from .intervals import EstimateInterval
from .stats import median, wls_fit

__all__ = [
    "PEAK_FIELDS",
    "MAD_LIMIT",
    "GpuHoursEstimate",
    "BridgeModel",
    "best_peak",
    "flop_hours",
    "gpu_hours_direct",
    "detect_anomalies",
    "fit_bridge",
    "estimate_gpu_hours",
]

# fp64 is deliberately absent: double precision does not bound ML training
# throughput and would distort the estimate downward.
PEAK_FIELDS = ("peak_fp32", "peak_fp16", "peak_tensor")

_SECONDS_PER_HOUR = 3600.0

# A bridge pair is anomalous past this many MADs of log-ratio from the median
MAD_LIMIT = 3.0


class GpuHoursEstimate(namedtuple("GpuHoursEstimate",
                                  ("value", "method", "interval", "per_card"))):
    """GPU-hours (float, > 0) with provenance (method: direct, flop_based or
    flop_based_bridged) and a candidate-card EstimateInterval.

    per_card holds (candidate card name, its value) pairs when the estimate
    is compute-based, else None: direct estimates do not depend on the card.
    """

    __slots__ = ()

    def __new__(cls, value, method, interval, per_card=None):
        if value <= 0:
            raise ValueError(f"GPU-hours must be > 0, got {value}")
        if method not in ("direct", "flop_based", "flop_based_bridged"):
            raise ValueError(f"unknown method {method!r}")
        return tuple.__new__(cls, (value, method, interval, per_card))


class BridgeModel(namedtuple("BridgeModel", ("fit", "log_flop_hours"))):
    """OLS of log(direct GPU-h) on log(compute-based GPU-h), natural logs:
    `fit` (a RegressionResult) and its x, log_flop_hours (an array). The
    coefficients and fit statistics are those of `fit`; compared by
    identity, as `fit` is."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def performance_ratio(self) -> float:
        """exp(-intercept); ~fraction of peak throughput achieved."""
        return math.exp(-self.fit.intercept)

    def apply(self, flop_hours: float) -> float:
        """Calibrated GPU-hours: exp(a) * h^b, or inf past the float range."""
        try:
            return math.exp(self.fit.intercept) * flop_hours**self.fit.slope
        except OverflowError:
            return math.inf


def _checked_hours(value: float, method: str) -> float:
    """GPU-hours that are finite and > 0; others fell outside the float range."""
    if not (math.isfinite(value) and value > 0):
        raise EstimationError(f"{method} GPU-hours must be finite and > 0, got {value}")
    return value


def best_peak(card: CardSpec) -> float:
    """Maximum available peak among fp32/fp16/tensor, in FLOP/s."""
    peaks = [getattr(card, f) for f in PEAK_FIELDS if getattr(card, f) is not None]
    if not peaks:
        raise MissingPeakError(
            f"card {card.name!r} has no usable peak field (fp32/fp16/tensor)"
        )
    return max(peaks)


def flop_hours(flop: float, card: CardSpec) -> float:
    """FLOP / (best peak x 3600) for one specific card.

    Underestimates real GPU-hours since hardware does not run at peak; the
    bridge regression corrects for that on average.
    """
    if flop <= 0:
        raise EstimationError(f"FLOP count must be > 0, got {flop}")
    return _checked_hours(flop / (best_peak(card) * _SECONDS_PER_HOUR), "compute-based")


def gpu_hours_direct(duration_hours: float, quantity: int) -> GpuHoursEstimate:
    """duration x quantity; the most reliable estimate when both are known."""
    if duration_hours <= 0:
        raise EstimationError(f"duration must be > 0 hours, got {duration_hours}")
    if quantity < 1:
        raise EstimationError(f"hardware quantity must be >= 1, got {quantity}")
    value = _checked_hours(duration_hours * quantity, "direct")
    return GpuHoursEstimate(value=value, method="direct", interval=EstimateInterval.degenerate(value))


def detect_anomalies(pairs):
    """Split (system, h_direct, h_flop) pairs into clean and anomalous.

    A pair is anomalous when the system is flagged fine-tuned (the compute
    estimate then covers the base model, not the fine-tune) or when its
    log-ratio log(h_direct/h_flop) sits more than MAD_LIMIT MADs from the median
    ratio, or when h_direct/h_flop is 0 or inf (no log-ratio; not in the
    median). Returns (clean, anomalous) where anomalous entries carry a
    reason; together they partition the input in order.
    """
    pairs = list(pairs)
    ratios = []
    for system, h1, h2 in pairs:
        if h1 <= 0 or h2 <= 0:
            raise EstimationError(
                f"both estimates must be > 0, got ({h1}, {h2}) for {getattr(system, 'name', system)!r}"
            )
        quotient = h1 / h2
        ratios.append(math.log(quotient) if 0 < quotient < math.inf else None)
    finite = [ratio for ratio in ratios if ratio is not None]
    center = median(finite)
    mad = median([abs(ratio - center) for ratio in finite])
    # Absolute guard keeps ulp-level noise in exact-ratio data from tripping
    # the zero-MAD case.
    threshold = MAD_LIMIT * mad + 1e-12 * max(1.0, abs(center))
    clean, anomalous = [], []
    for pair, ratio in zip(pairs, ratios):
        system = pair[0]
        if getattr(system, "finetuned", False):
            anomalous.append((pair, "finetuned"))
        elif ratio is None:
            anomalous.append((pair, "direct/FLOP GPU-hour quotient outside the float range"))
        elif abs(ratio - center) > threshold:
            anomalous.append((pair, f"log-ratio outlier: |{ratio:.4g} - median {center:.4g}| "
                                    f"> {MAD_LIMIT}*MAD"))
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
    x = array("d", [math.log(h2) for _, h2 in pairs])
    return BridgeModel(wls_fit(x, [math.log(h1) for h1, _ in pairs]), x)


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
                hours = flop_hours(system.training_flop, card)
            except MissingPeakError:
                if card is card_ref.reference:
                    raise
                continue  # non-reference candidate without peaks narrows the interval
            if apply_bridge:
                hours = _checked_hours(bridge.apply(hours), "bridged")
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
