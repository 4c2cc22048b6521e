"""Regression machinery and residual diagnostics.

Simple (intercept + slope) least squares is solved in closed form from the
weighted normal equations; unit weights reduce exactly to OLS. Trend fitting
works on the natural log of the values, so a fitted slope s per year means a
growth factor exp(s) and a CAGR of 100*(exp(s)-1) percent.

Diagnostics:
  * Shapiro-Wilk: a pure-Python port of Royston's AS R94 (Appl. Statist. 44,
    1995) as scipy.stats.shapiro runs it, with the AS 111 normal quantile and
    the AS 66 normal tail; W and p equal scipy's to the last bit.
  * Studentized (Koenker) Breusch-Pagan: n*R^2 of e^2 regressed on x,
    chi-square with 1 df.
  * Durbin-Watson with a normal approximation for the p-value,
    D ~ N(2, 4/n) under the null. The approximation is O(1/n); for n < 30
    the p-value is indicative only. Reported p is one-sided for positive
    autocorrelation (small D -> small p).

The F, chi-square and normal tails are scipy.special's fdtrc, chdtrc and
ndtr, the functions scipy.stats evaluates for f.sf, chi2.sf and norm.cdf.
They are loaded on first use, not at module load, and only from the compiled
module scipy.special._ufuncs: the package __init__ would also load scipy's
array-API layer (with numpy.f2py and numpy.testing), about 80 ms of the
package's 90 ms import. scipy.stats is never imported: only bridge.json
needs a p-value, so of the CLI's subcommands only bridge and report load
scipy.special._ufuncs. numpy, too, is imported inside each function that
computes with it: import mlca_trends loads neither, nor do ingest and coverage.
"""

from __future__ import annotations

import datetime as _dt
import importlib.util
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

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
        # F can fall below 0 only by rounding; p is then 1, as f.sf gives.
        return float(_ufuncs().fdtrc(*self.f_df, max(self.f_statistic, 0.0)))


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


@cache
def _ufuncs():
    """scipy.special._ufuncs without the package __init__: it is imported
    under an unexecuted scipy.special module, which then leaves sys.modules
    (so no other thread may import scipy.special meanwhile). A later
    `import scipy.special` runs the __init__ and reuses these ufuncs."""
    name = "scipy.special"
    if name in sys.modules:
        return importlib.import_module(name + "._ufuncs")
    sys.modules[name] = importlib.util.module_from_spec(importlib.util.find_spec(name))
    try:
        return importlib.import_module(name + "._ufuncs")
    finally:
        del sys.modules[name]


def _as_vector(v, name: str) -> np.ndarray:
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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
    import numpy as np
    e = _as_vector(residuals, "residuals")
    n = e.size
    if n < 2:
        raise StatsError(f"need at least 2 residuals, got {n}")
    denom = float(np.dot(e, e))
    if denom == 0.0:
        raise DegenerateDataError("all residuals are zero")
    d = float(np.sum(np.diff(e) ** 2) / denom)
    p = float(_ufuncs().ndtr((d - 2.0) / (2.0 / math.sqrt(n))))
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
    return float(stat), float(_ufuncs().chdtrc(1, max(stat, 0.0)))  # as chi2.sf below 0


def shapiro_wilk(sample) -> tuple[float, float]:
    """Shapiro-Wilk W and p-value (Royston's approximation) of 3 or more values.

    Above 5,000 values W stays accurate but p may not be; it warns, as
    scipy.stats.shapiro does."""
    import numpy as np
    s = _as_vector(sample, "sample")
    if s.size < 3:
        raise StatsError(f"sample size must be at least 3, got {s.size}")
    spread = float(s.max()) - float(s.min())
    if spread == 0.0:
        raise DegenerateDataError("constant sample")
    if math.isinf(spread):
        raise StatsError("sample range overflows a float")
    # Shift by an element near the median before scaling, as scipy does.
    y = np.sort(s)
    y -= s[s.size // 2]
    if s.size > 5000:
        warnings.warn(f"Shapiro-Wilk p-value may be inaccurate above 5000 values, "
                      f"got {s.size}", stacklevel=2)
    return _swilk(y.tolist())


# AS R94 polynomial coefficients, lowest order first.
_SW_C1 = (0.0, 0.221157, -0.147981, -2.07119, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_C3 = (0.544, -0.39978, 0.025054, -6.714e-4)
_SW_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_SW_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_C6 = (-0.4803, -0.082676, 0.0030302)
_SW_G = (-2.273, 0.459)
_SW_SMALL = 1e-19


def _poly(cc, x: float) -> float:
    """Polynomial with coefficients cc (lowest order first) at x, in AS R94's
    evaluation order."""
    p = x * cc[-1]
    for c in cc[-2:0:-1]:
        p = (p + c) * x
    return cc[0] + p


def _ppnd(p: float) -> float:
    """Normal quantile by AS 111 (Beasley and Springer, 1977)."""
    q = p - 0.5
    if abs(q) <= 0.42:
        r = q * q
        return q * (((-25.44106049637 * r + 41.39119773534) * r - 18.61500062529) * r
                    + 2.50662823884) / ((((3.13082909833 * r - 21.06224101826) * r
                                          + 23.08336743743) * r - 8.47351093090) * r + 1.0)
    r = 1.0 - p if q > 0.0 else p
    if r <= 0.0:
        return 0.0
    r = math.sqrt(-math.log(r))
    v = (((2.32121276858 * r + 4.85014127135) * r - 2.29796479134) * r
         - 2.78718931138) / ((1.63706781897 * r + 3.54388924762) * r + 1.0)
    return -v if q < 0.0 else v


def _normal_upper_tail(x: float) -> float:
    """P(Z > x) by AS 66 (Hill, 1973), cut to 0 beyond z = 7 on the lower
    side and z = 38 on the upper."""
    upper = x >= 0.0  # false for nan, whose tail is then 1
    z = x if upper else -x
    if not (z <= 7.0 or upper and z <= 38.0):
        tail = 0.0
    elif z > 1.28:
        tail = 0.398942280385 * math.exp(-0.5 * z * z) / (
            z - 3.8052e-8 + 1.00000615302 / (
                z + 3.98064794e-4 + 1.98615381364 / (
                    z - 0.151679116635 + 5.29330324926 / (
                        z + 4.8385912808 - 15.1508972451 / (
                            z + 0.742380924027 + 30.789933034 / (z + 3.99019417011))))))
    else:
        y = 0.5 * z * z
        tail = 0.5 - z * (0.398942280444 - 0.399903438504 * y / (
            y + 5.75885480458 - 29.8213557808 / (
                y + 2.62433121679 + 48.6959930692 / (y + 5.92885724438))))
    return tail if upper else 1.0 - tail


def _swilk(x: list[float]) -> tuple[float, float]:
    """W and p of AS R94 for an ascending sample of 3 or more values.

    Scalar loops in the algorithm's own order: every sum rounds as it does in
    scipy, so W and p match scipy.stats.shapiro bit for bit.
    """
    n = len(x)
    nn2 = n // 2
    an = float(n)
    # Coefficients a[0..nn2-1] of the order statistics, largest weight first.
    if n == 3:
        a = [math.sqrt(2.0) / 2.0]
    else:
        an25 = an + 0.25
        m = [_ppnd((i - 0.375) / an25) for i in range(1, nn2 + 1)]
        summ2 = 0.0
        for mi in m:
            summ2 += mi * mi
        summ2 *= 2.0
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(an)
        a1 = _poly(_SW_C1, rsn) - m[0] / ssumm2
        if n > 5:
            a2 = -m[1] / ssumm2 + _poly(_SW_C2, rsn)
            fac = math.sqrt((summ2 - 2.0 * (m[0] * m[0]) - 2.0 * (m[1] * m[1]))
                            / (1.0 - 2.0 * (a1 * a1) - 2.0 * (a2 * a2)))
            head = [a1, a2]
        else:
            fac = math.sqrt((summ2 - 2.0 * (m[0] * m[0])) / (1.0 - 2.0 * (a1 * a1)))
            head = [a1]
        rfac = 1.0 / fac
        a = head + [-mi * rfac for mi in m[len(head):]]

    rangex = x[-1] - x[0]
    if rangex < _SW_SMALL:
        warnings.warn("Shapiro-Wilk sample range below 1e-19; W and p set to 1",
                      stacklevel=3)
        return 1.0, 1.0
    # Means of the antisymmetric coefficient vector and of the scaled sample.
    sx = x[0] / rangex
    sa = -a[0]
    j = n - 2
    for i in range(1, n):
        sx += x[i] / rangex
        if i != j:
            sa += a[min(i, j)] if i > j else -a[min(i, j)]
        j -= 1
    sa /= n
    sx /= n
    ssa = ssx = sax = 0.0
    j = n - 1
    for i in range(n):
        if i != j:
            asa = (a[min(i, j)] if i > j else -a[min(i, j)]) - sa
        else:
            asa = -sa
        xsx = x[i] / rangex - sx
        ssa += asa * asa
        ssx += xsx * xsx
        sax += asa * xsx
        j -= 1
    # 1 - W as a difference of squares, exact for W near 1.
    ssassx = math.sqrt(ssa * ssx)
    w1 = (ssassx - sax) * (ssassx + sax) / (ssa * ssx)
    w = 1.0 - w1

    # Rounding can leave w1 at or just below 0, so W at or just above 1.
    if n == 3:  # exact
        return w, max(1.0 - 6.0 / math.pi * math.acos(min(math.sqrt(w), 1.0)), 0.0)
    y = math.log(w1) if w1 > 0.0 else -math.inf if w1 == 0.0 else math.nan
    if n <= 11:
        gamma = _poly(_SW_G, an)
        if y >= gamma:
            return w, _SW_SMALL
        y = -math.log(gamma - y)
        mean = _poly(_SW_C3, an)
        sd = math.exp(_poly(_SW_C4, an))
    else:
        log_n = math.log(an)
        mean = _poly(_SW_C5, log_n)
        sd = math.exp(_poly(_SW_C6, log_n))
    return w, _normal_upper_tail((y - mean) / sd)


def diagnostics(x, residuals) -> DiagnosticReport:
    """All three residual diagnostics for a fitted simple regression."""
    return DiagnosticReport(
        shapiro_wilk=shapiro_wilk(residuals),
        breusch_pagan=breusch_pagan_studentized(x, residuals),
        durbin_watson=durbin_watson(residuals),
    )


def to_fractional_year(when) -> float:
    """Calendar date (or datetime) -> fractional year via
    (day_of_year - 1)/365.25, memoized per date; a number passes as a float."""
    if isinstance(when, _dt.date):
        return _date_to_year(when)
    if isinstance(when, (int, float)):
        return float(when)
    raise StatsError(f"cannot interpret {when!r} as a date or year")


@cache
def _date_to_year(when: _dt.date) -> float:
    return when.year + (when.timetuple().tm_yday - 1) / 365.25


def exp_trend(series, weighting: str = "ols") -> TrendFit:
    """Fit log(value) on fractional year over a (date, value) series.

    Non-positive values cannot enter the log fit; they are excluded and
    counted in n_excluded. weighting is "ols" or "feasible_wls" (two-stage
    weights from feasible_weights).
    """
    import numpy as np
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
