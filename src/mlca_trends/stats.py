"""Regression machinery and residual diagnostics.

Simple (intercept + slope) least squares is solved in closed form from the
weighted normal equations; unit weights reduce exactly to OLS. Trend fitting
works on the natural log of the values, so a fitted slope s per year means a
growth factor exp(s) and a CAGR of 100*(exp(s)-1) percent.

Diagnostics:
  * Shapiro-Wilk via Royston's approximation (scipy implementation).
  * Studentized (Koenker) Breusch-Pagan: n*R^2 of e^2 regressed on x,
    chi-square with 1 df.
  * Durbin-Watson with a normal approximation for the p-value,
    D ~ N(2, 4/n) under the null. The approximation is O(1/n); for n < 30
    the p-value is indicative only. Reported p is one-sided for positive
    autocorrelation (small D -> small p).

scipy.stats is imported by the functions that compute p-values, not at module
load: it is most of the package's start-up time, and only bridge.json needs it.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDataError, StatsError

__all__ = [
    "RegressionResult",
    "DiagnosticReport",
    "TrendFit",
    "wls_fit",
    "feasible_weights",
    "durbin_watson",
    "breusch_pagan_studentized",
    "shapiro_wilk",
    "diagnostics",
    "exp_trend",
    "to_fractional_year",
]


@dataclass(frozen=True, eq=False)
class RegressionResult:
    """Fit of y = a + b*x minimizing sum w_i (y_i - a - b*x_i)^2.

    coefficients is (a, b); standard_errors matches. f_df is (1, n-2).
    Compared by identity: a field-wise == over numpy arrays has no truth value.
    """

    coefficients: np.ndarray
    standard_errors: np.ndarray
    r2: float
    adj_r2: float
    f_statistic: float
    f_df: tuple[int, int]
    residuals: np.ndarray
    weights: np.ndarray
    n: int

    @property
    def intercept(self) -> float:
        return float(self.coefficients[0])

    @property
    def slope(self) -> float:
        return float(self.coefficients[1])

    @cached_property
    def f_pvalue(self) -> float:
        """Upper tail of F(f_df) at f_statistic; 0.0 for a perfect fit."""
        if math.isinf(self.f_statistic):
            return 0.0
        from scipy.stats import f
        return float(f.sf(self.f_statistic, *self.f_df))


@dataclass(frozen=True)
class DiagnosticReport:
    """Residual diagnostics (statistic, p-value) triple for one fit."""

    shapiro_wilk: tuple[float, float]
    breusch_pagan: tuple[float, float]
    durbin_watson: tuple[float, float]


@dataclass(frozen=True)
class TrendFit:
    """Log-linear trend of a positive time series.

    doubling_time_years = ln(2)/slope for positive slopes, NaN otherwise.
    """

    slope_per_year: float
    intercept: float
    growth_factor: float
    cagr_pct: float
    doubling_time_years: float
    weighting: str
    n_used: int
    n_excluded: int
    regression: RegressionResult


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).ravel()
    if arr.size and not np.all(np.isfinite(arr)):
        raise StatsError(f"{name} contains non-finite values")
    return arr


def wls_fit(x, y, weights=None) -> RegressionResult:
    """Weighted least squares of y on x with an intercept.

    Closed-form normal equations on centered data. weights=None means unit
    weights (plain OLS); all weights must be strictly positive. Multiplying
    every weight by the same positive constant leaves the result unchanged.
    """
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    if weights is None:
        w = np.ones_like(x)
    else:
        w = _as_vector(weights, "weights")
    if not (x.size == y.size == w.size):
        raise StatsError(f"length mismatch: x={x.size} y={y.size} weights={w.size}")
    n = x.size
    if n < 3:
        raise StatsError(f"need at least 3 observations, got {n}")
    if np.any(w <= 0):
        raise StatsError("weights must be strictly positive")

    wsum = w.sum()
    xbar = float(np.dot(w, x) / wsum)
    ybar = float(np.dot(w, y) / wsum)
    xc = x - xbar
    yc = y - ybar
    sxx = float(np.dot(w, xc * xc))
    if sxx <= np.finfo(float).eps * max(1.0, float(np.dot(w, x * x))):
        raise DegenerateDataError("predictor has no weighted variance")

    slope = float(np.dot(w, xc * yc) / sxx)
    intercept = ybar - slope * xbar
    residuals = y - intercept - slope * x
    rss = float(np.dot(w, residuals * residuals))
    tss = float(np.dot(w, yc * yc))

    dof = n - 2
    sigma2 = rss / dof
    se_slope = math.sqrt(sigma2 / sxx)
    se_intercept = math.sqrt(sigma2 * (1.0 / wsum + xbar * xbar / sxx))

    if tss > 0.0:
        r2 = 1.0 - rss / tss
    else:
        r2 = 0.0  # constant response: no variance to explain
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof
    f_stat = (tss - rss) / (rss / dof) if rss > 0.0 else math.inf

    return RegressionResult(
        coefficients=np.array([intercept, slope]),
        standard_errors=np.array([se_intercept, se_slope]),
        r2=r2,
        adj_r2=adj_r2,
        f_statistic=f_stat,
        f_df=(1, dof),
        residuals=residuals,
        weights=w,
        n=n,
    )


def feasible_weights(x, residuals) -> np.ndarray:
    """Two-stage feasible weights from preliminary OLS residuals.

    Regresses log(residual^2) on x and returns weights 1/exp(fitted),
    normalized to mean 1. Squared residuals are floored at machine-epsilon
    scale so exact zeros stay finite. Identical residuals give exactly
    constant weights.
    """
    x = _as_vector(x, "x")
    e = _as_vector(residuals, "residuals")
    if x.size != e.size:
        raise StatsError(f"length mismatch: x={x.size} residuals={e.size}")
    e2 = e * e
    floor = np.finfo(float).eps * max(1.0, float(e2.max(initial=0.0)))
    aux = wls_fit(x, np.log(np.maximum(e2, floor)))
    fitted = aux.intercept + aux.slope * x
    w = np.exp(-fitted)
    return w / w.mean()


def durbin_watson(residuals) -> tuple[float, float]:
    """Durbin-Watson statistic D = sum(diff(e)^2) / sum(e^2), with a
    one-sided (positive autocorrelation) p-value from D ~ N(2, 4/n)."""
    e = _as_vector(residuals, "residuals")
    n = e.size
    if n < 2:
        raise StatsError(f"need at least 2 residuals, got {n}")
    denom = float(np.dot(e, e))
    if denom == 0.0:
        raise DegenerateDataError("all residuals are zero")
    d = float(np.sum(np.diff(e) ** 2) / denom)
    from scipy.stats import norm
    p = float(norm.cdf((d - 2.0) / (2.0 / math.sqrt(n))))
    return d, p


def breusch_pagan_studentized(x, residuals) -> tuple[float, float]:
    """Koenker's studentized Breusch-Pagan test against variance linear in x.

    Statistic is n*R^2 from the auxiliary regression of squared residuals on
    x; p-value from chi-square with 1 df.
    """
    x = _as_vector(x, "x")
    e = _as_vector(residuals, "residuals")
    if x.size != e.size:
        raise StatsError(f"length mismatch: x={x.size} residuals={e.size}")
    if x.size < 3:
        raise StatsError(f"need at least 3 observations, got {x.size}")
    aux = wls_fit(x, e * e)
    stat = aux.n * aux.r2
    from scipy.stats import chi2
    return float(stat), float(chi2.sf(stat, 1))


def shapiro_wilk(sample) -> tuple[float, float]:
    """Shapiro-Wilk W and p-value (Royston's approximation, 3 <= n <= 5000)."""
    s = _as_vector(sample, "sample")
    if not 3 <= s.size <= 5000:
        raise StatsError(f"sample size must be in [3, 5000], got {s.size}")
    if float(s.max() - s.min()) == 0.0:
        raise DegenerateDataError("constant sample")
    from scipy.stats import shapiro
    w, p = shapiro(s)
    return float(w), float(p)


def diagnostics(x, residuals) -> DiagnosticReport:
    """All three residual diagnostics for a fitted simple regression."""
    return DiagnosticReport(
        shapiro_wilk=shapiro_wilk(residuals),
        breusch_pagan=breusch_pagan_studentized(x, residuals),
        durbin_watson=durbin_watson(residuals),
    )


def to_fractional_year(when) -> float:
    """Calendar date -> fractional year via (day_of_year - 1)/365.25."""
    if isinstance(when, (int, float)):
        return float(when)
    if isinstance(when, (_dt.date, _dt.datetime)):
        return when.year + (when.timetuple().tm_yday - 1) / 365.25
    raise StatsError(f"cannot interpret {when!r} as a date or year")


def exp_trend(series, weighting: str = "ols") -> TrendFit:
    """Fit log(value) on fractional year over a (date, value) series.

    Non-positive values cannot enter the log fit; they are excluded and
    counted in n_excluded. weighting is "ols" or "feasible_wls" (two-stage
    weights from feasible_weights).
    """
    if weighting not in ("ols", "feasible_wls"):
        raise StatsError(f"unknown weighting {weighting!r}")
    points = [(to_fractional_year(d), v) for d, v in series]
    kept = [(t, v) for t, v in points if v > 0]
    n_excluded = len(points) - len(kept)
    if len(kept) < 3:
        raise StatsError(
            f"need at least 3 positive values, got {len(kept)} "
            f"({n_excluded} non-positive excluded)"
        )
    x = np.array([t for t, _ in kept])
    y = np.log([v for _, v in kept])

    fit = wls_fit(x, y)
    if weighting == "feasible_wls":
        fit = wls_fit(x, y, feasible_weights(x, fit.residuals))

    slope = fit.slope
    growth = math.exp(slope)
    doubling = math.log(2.0) / slope if slope > 0 else math.nan
    return TrendFit(
        slope_per_year=slope,
        intercept=fit.intercept,
        growth_factor=growth,
        cagr_pct=100.0 * (growth - 1.0),
        doubling_time_years=doubling,
        weighting=weighting,
        n_used=len(kept),
        n_excluded=n_excluded,
        regression=fit,
    )
