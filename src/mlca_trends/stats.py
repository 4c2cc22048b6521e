"""Regression machinery and residual diagnostics.

Simple (intercept + slope) least squares is solved in closed form from the
weighted normal equations; unit weights reduce exactly to OLS. Trend fitting
works on the natural log of the values, so a fitted slope s per year means a
growth factor exp(s) and a CAGR of 100*(exp(s)-1) percent. The series of one
table share their x (SharedX), centred once; the first OLS pass and the
auxiliary fit of the feasible weights compute only their two coefficients.

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

Every sum is math.fsum, which is exactly rounded, so a fit does not depend
on the order of its points. Vectors are array('d'). The F, chi-square and
normal tails come from math.erfc and series (_f_upper_tail): no subcommand
loads numpy or scipy.
"""

from __future__ import annotations

import datetime as _dt
import math
import warnings
from array import array
from collections import namedtuple
from functools import cache, cached_property, partial
from itertools import count
from math import fsum
from operator import mul

from .errors import DegenerateDataError, StatsError

_EPS = 2.0**-52  # float64 machine epsilon

__all__ = [
    "RegressionResult",
    "TrendFit",
    "wls_fit",
    "feasible_weights",
    "durbin_watson",
    "breusch_pagan_studentized",
    "shapiro_wilk",
    "diagnostics",
    "exp_trend",
    "to_fractional_year",
    "median",
    "quartiles",
]


class RegressionResult(namedtuple("RegressionResult", (
        "coefficients", "standard_errors", "r2", "adj_r2", "f_statistic", "f_df", "residuals",
        "weights", "n"))):
    """Fit of y = a + b*x minimizing sum w_i (y_i - a - b*x_i)^2.

    coefficients is (a, b); standard_errors matches. r2, adj_r2 and
    f_statistic are floats, f_df is (1, n-2), residuals and weights are
    arrays over the n points. Compared by identity, as the result of one fit;
    without __slots__, so that the instance dict holds f_pvalue.
    """

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def intercept(self) -> float:
        return self.coefficients[0]

    @property
    def slope(self) -> float:
        return self.coefficients[1]

    @cached_property
    def f_pvalue(self) -> float:
        """Upper tail of F(f_df) at f_statistic; 0.0 for a perfect fit."""
        return _f_upper_tail(self.f_df[1], self.f_statistic)


class TrendFit(namedtuple("TrendFit", (
        "slope_per_year", "intercept", "growth_factor", "cagr_pct", "doubling_time_years",
        "weighting", "n_used", "n_excluded", "regression"))):
    """Log-linear trend of a positive time series: floats, then the weighting
    (str), the counts of points used and excluded, and the RegressionResult.

    doubling_time_years = ln(2)/slope for positive slopes, NaN otherwise.
    """

    __slots__ = ()


def _as_vector(v, name: str) -> array:
    arr = array("d", v)
    if not all(map(math.isfinite, arr)):
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
    n = len(x)
    w = array("d", [1.0]) * n if weights is None else _as_vector(weights, "weights")
    if not (n == len(y) == len(w)):
        raise StatsError(f"length mismatch: x={n} y={len(y)} weights={len(w)}")
    if n < 3:
        raise StatsError(f"need at least 3 observations, got {n}")
    if min(w) <= 0:
        raise StatsError("weights must be strictly positive")
    w = None if weights is None else w
    try:
        return _wls_fit(x, y, w, _centre(x, w))
    except (OverflowError, ValueError) as exc:  # a sum past the float range
        raise StatsError(f"weighted sums overflow a float ({exc})") from exc


def _centre(x, w=None) -> tuple:
    """(weight total, weighted mean, x - mean, weighted sum of (x - mean)^2)
    of x under the weights w. Unit weights (None): each product w_i v_i is
    v_i, so the sums skip them."""
    weighted = (lambda v: v) if w is None else partial(map, mul, w)
    wsum = float(len(x)) if w is None else fsum(w)
    xbar = fsum(weighted(x)) / wsum
    xc = [v - xbar for v in x]
    sxx = fsum(map(mul, weighted(xc), xc))
    if sxx <= _EPS * max(1.0, sxx + wsum * xbar * xbar):  # the sum is sum w x^2
        raise DegenerateDataError("predictor has no weighted variance")
    return wsum, xbar, xc, sxx


def _wls_fit(x: array, y: array, w: array | None, centred: tuple, full: bool = True):
    """The fit of y on x under the weights w, given x's _centre under them:
    a RegressionResult, or (intercept, slope) alone unless full."""
    wsum, xbar, xc, sxx = centred
    weighted = (lambda v: v) if w is None else partial(map, mul, w)
    ybar = fsum(weighted(y)) / wsum
    yc = [v - ybar for v in y]
    slope = fsum(map(mul, weighted(xc), yc)) / sxx
    intercept = ybar - slope * xbar
    if not full:
        return intercept, slope
    residuals = array("d", [v - intercept - slope * t for t, v in zip(x, y)])
    rss = fsum(map(mul, weighted(residuals), residuals))
    tss = fsum(map(mul, weighted(yc), yc))

    n = len(x)
    dof = n - 2
    sigma2 = rss / dof
    se_slope = math.sqrt(sigma2 / sxx)
    se_intercept = math.sqrt(sigma2 * (1.0 / wsum + xbar * xbar / sxx))

    r2 = 1.0 - rss / tss if tss > 0.0 else 0.0  # a constant response has no variance to explain
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof
    f_stat = (tss - rss) / (rss / dof) if rss > 0.0 else math.inf

    return RegressionResult(coefficients=(intercept, slope), standard_errors=(se_intercept, se_slope),
                            r2=r2, adj_r2=adj_r2, f_statistic=f_stat, f_df=(1, dof),
                            residuals=residuals, weights=array("d", [1.0]) * n if w is None else w,
                            n=n)


class SharedX(array):
    """A predictor, an array('d') that unit-weight fits share: its _centre is
    computed once, on first use. trend_stage fits every series of a table
    over one, the fractional years of the table's dates."""

    @cached_property
    def centred(self) -> tuple:
        return _centre(_as_vector(self, "x"))


def feasible_weights(x, residuals) -> array:
    """Two-stage feasible weights from preliminary OLS residuals.

    Regresses log(residual^2) on x and returns weights 1/exp(fitted),
    normalized to mean 1. Squared residuals are floored at machine-epsilon
    scale so exact zeros stay finite. Identical residuals give exactly
    constant weights. x may be a SharedX, whose centring is then reused.
    """
    x = x if isinstance(x, SharedX) else SharedX("d", x)
    e = _as_vector(residuals, "residuals")
    if len(x) != len(e):
        raise StatsError(f"length mismatch: x={len(x)} residuals={len(e)}")
    if len(e) < 3:
        raise StatsError(f"need at least 3 observations, got {len(e)}")
    e2 = [v * v for v in e]
    floor = _EPS * max(1.0, max(e2, default=0.0))
    logs = _as_vector([math.log(v if v > floor else floor) for v in e2], "y")
    try:
        a, b = _wls_fit(x, logs, None, x.centred, full=False)  # only its coefficients are read
        w = array("d", [math.exp(-(a + b * t)) for t in x])
        mean = fsum(w) / len(w)
    except (OverflowError, ValueError) as exc:  # a sum past the float range
        raise StatsError(f"feasible weights overflow a float ({exc})") from exc
    return array("d", [v / mean for v in w])


def durbin_watson(residuals) -> tuple[float, float]:
    """Durbin-Watson statistic D = sum(diff(e)^2) / sum(e^2), with a
    one-sided (positive autocorrelation) p-value from D ~ N(2, 4/n)."""
    e = _as_vector(residuals, "residuals")
    n = len(e)
    if n < 2:
        raise StatsError(f"need at least 2 residuals, got {n}")
    denom = fsum(map(mul, e, e))
    if denom == 0.0:
        raise DegenerateDataError("all residuals are zero")
    d = fsum([(b - a) * (b - a) for a, b in zip(e, e[1:])]) / denom
    return d, _normal_cdf((d - 2.0) / (2.0 / math.sqrt(n)))


def breusch_pagan_studentized(x, residuals) -> tuple[float, float]:
    """Koenker's studentized Breusch-Pagan test against variance linear in x.

    Statistic is n*R^2 from the auxiliary regression of squared residuals on
    x; p-value from chi-square with 1 df.
    """
    x = _as_vector(x, "x")
    e = _as_vector(residuals, "residuals")
    if len(x) != len(e):
        raise StatsError(f"length mismatch: x={len(x)} residuals={len(e)}")
    if len(x) < 3:
        raise StatsError(f"need at least 3 observations, got {len(x)}")
    aux = wls_fit(x, map(mul, e, e))
    stat = aux.n * aux.r2
    return stat, _chi2_upper_tail(stat)


def _normal_cdf(z: float) -> float:
    """P(Z <= z) for a standard normal Z (scipy.special.ndtr)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _chi2_upper_tail(x: float) -> float:
    """P(X > x) for X ~ chi-square(1) (chdtrc(1, x)); x below 0 by rounding gives 1."""
    return math.erfc(math.sqrt(max(x, 0.0) / 2.0))


# Gamma(a + 1/2) / (Gamma(a) sqrt(a)) in powers of 1/a, lowest order first
_GAMMA_HALF_RATIO = (1.0, -1 / 8, 1 / 128, 5 / 1024, -21 / 32768, -399 / 262144,
                     869 / 4194304, 39325 / 33554432, -334477 / 2147483648)


def _hyp_series(s: float, c: float, x: float) -> float:
    """2F1(s, 1; c; x), the sum of the positive terms (s)_k / (c)_k x^k, 0 <= x < 1."""
    term = total = 1.0
    for k in count():
        term *= (s + k) / (c + k) * x
        total += term
        if term <= 1e-17 * total:
            return total


def _bgrat(a: float, log_x: float) -> float:
    """I_x(a, 1/2) Gamma(a) / Gamma(a + 1/2) for a >= 15, x >= 1/2: BGRAT of ACM
    TOMS 708 (Didonato and Morris), Q(1/2, z) = erfc(sqrt(z)) plus a series in 1/nu^2."""
    nu = a - 0.25
    z = -nu * log_x
    r = math.exp(-z) * math.sqrt(z / math.pi)  # z^b exp(-z) / Gamma(b)
    j = total = math.erfc(math.sqrt(z))
    v, t2 = 0.25 / (nu * nu), 0.25 * log_x * log_x
    t, cn, c, d = 1.0, 1.0, [], []
    for n in range(1, 31):
        bp2n = 2.0 * n - 1.5
        j = (bp2n * (bp2n + 1.0) * j + (z + bp2n + 1.0) * t * r) * v
        t *= t2
        cn /= 2.0 * n * (2.0 * n + 1.0)
        c.append(cn)
        d.append(-0.5 * cn + fsum((0.5 * i - n) * c[i - 1] * d[n - i - 1]
                                  for i in range(1, n)) / n)
        total += d[-1] * j
        if abs(d[-1] * j) <= 1e-16 * total:
            break
    return total / math.sqrt(nu)


def _f_upper_tail(dof: int, f: float) -> float:
    """P(F > f) for F ~ F(1, dof) (fdtrc(1, dof, f)): the regularized incomplete
    beta I_x(a, 1/2) at a = dof/2, x = dof/(dof + f), by series of positive
    terms, or by _bgrat for a >= 15 near x = 1, where those converge slowly.
    f below 0 by rounding gives 1, as f.sf does."""
    if not 0.0 < f < math.inf:
        return 1.0 if f <= 0.0 else 0.0
    a = 0.5 * dof
    x, y = dof / (dof + f), f / (dof + f)  # y = 1 - x
    log_x = -math.log1p(f / dof)
    ratio = (math.sqrt(a) * _poly(_GAMMA_HALF_RATIO, 1.0 / a) if a >= 20.0
             else math.gamma(a + 0.5) / math.gamma(a))  # Gamma(a + 1/2) / Gamma(a)
    if a >= 15.0 and x >= 0.5:
        return _bgrat(a, log_x) * ratio
    # x^a y^(1/2) / B(a, 1/2); I_x(a, b) = front 2F1(a + b, 1; a + 1; x) / a
    front = math.exp(a * log_x + 0.5 * math.log(y)) * ratio / math.sqrt(math.pi)
    if x < (a + 1.0) / (a + 2.5):
        return front * _hyp_series(a + 0.5, a + 1.0, x) / a
    return 1.0 - 2.0 * front * _hyp_series(a + 0.5, 1.5, y)  # 1 - I_y(1/2, a)


def shapiro_wilk(sample) -> tuple[float, float]:
    """Shapiro-Wilk W and p-value (Royston's approximation) of 3 or more values.

    Above 5,000 values W stays accurate but p may not be; it warns, as
    scipy.stats.shapiro does."""
    s = _as_vector(sample, "sample")
    if len(s) < 3:
        raise StatsError(f"sample size must be at least 3, got {len(s)}")
    ordered = sorted(s)
    spread = ordered[-1] - ordered[0]
    if spread == 0.0:
        raise DegenerateDataError("constant sample")
    if math.isinf(spread):
        raise StatsError("sample range overflows a float")
    shift = s[len(s) // 2]  # scipy shifts by an element near the median before scaling
    if len(s) > 5000:
        warnings.warn(f"Shapiro-Wilk p-value may be inaccurate above 5000 values, "
                      f"got {len(s)}", stacklevel=2)
    return _swilk([v - shift for v in ordered])


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


def diagnostics(x, residuals) -> dict | None:
    """The three residual tests of a simple regression, each [statistic,
    p-value]; None when the residuals vary too little to test."""
    try:
        return {
            "shapiro_wilk": list(shapiro_wilk(residuals)),
            "breusch_pagan_studentized": list(breusch_pagan_studentized(x, residuals)),
            "durbin_watson": list(durbin_watson(residuals)),
        }
    except DegenerateDataError:
        return None


@cache
def to_fractional_year(when) -> float:
    """Calendar date (or datetime) -> fractional year via
    (day_of_year - 1)/365.25, memoized per date; a number passes as a float."""
    if isinstance(when, _dt.date):
        return when.year + (when.timetuple().tm_yday - 1) / 365.25
    if isinstance(when, (int, float)):
        return float(when)
    raise StatsError(f"cannot interpret {when!r} as a date or year")


def exp_trend(series, weighting: str = "ols", x: SharedX | None = None) -> TrendFit:
    """Fit log(value) on fractional year over a (date, value) series, or, given
    x, the fractional years of the series' dates, over the values of series in
    x's order: the series of one table share their x.

    Non-positive values cannot enter the log fit; they are excluded and
    counted in n_excluded. weighting is "ols" or "feasible_wls" (two-stage
    weights from feasible_weights); only the final fit builds a
    RegressionResult.
    """
    if weighting not in ("ols", "feasible_wls"):
        raise StatsError(f"unknown weighting {weighting!r}")
    if x is None:
        points = list(series)
        series = [v for _, v in points]
        x = SharedX("d", [to_fractional_year(d) for d, _ in points])
    y = [v for v in series if v > 0]
    n_excluded = len(series) - len(y)
    if len(y) < 3:
        raise StatsError(
            f"need at least 3 positive values, got {len(y)} "
            f"({n_excluded} non-positive excluded)"
        )
    if n_excluded:
        x = SharedX("d", [t for t, v in zip(x, series) if v > 0])
    y = _as_vector(map(math.log, y), "y")

    try:
        if weighting == "ols":
            fit = _wls_fit(x, y, None, x.centred)
        else:  # the first pass: its coefficients alone, for the residuals
            a, b = _wls_fit(x, y, None, x.centred, full=False)
            fit = wls_fit(x, y, feasible_weights(x, [v - a - b * t for t, v in zip(x, y)]))
    except (OverflowError, ValueError) as exc:  # a sum past the float range
        raise StatsError(f"weighted sums overflow a float ({exc})") from exc

    slope = fit.slope
    try:
        growth = math.exp(slope)
    except OverflowError:
        raise StatsError(f"growth factor exp({slope:.4g}) per year is past the float range") from None
    doubling = math.log(2.0) / slope if slope > 0 else math.nan
    return TrendFit(
        slope_per_year=slope,
        intercept=fit.intercept,
        growth_factor=growth,
        cagr_pct=100.0 * (growth - 1.0),
        doubling_time_years=doubling,
        weighting=weighting,
        n_used=len(y),
        n_excluded=n_excluded,
        regression=fit,
    )


def median(values) -> float:
    """np.median of floats, bit for bit: the middle value or the mean of the
    two middle values; nan if any value is nan or there is none."""
    ordered = sorted(values)
    if not ordered or any(map(math.isnan, ordered)):
        return math.nan
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def quartiles(values) -> tuple[float, float, float]:
    """np.percentile(values, [25, 50, 75]) of one or more floats, bit for bit
    (linear, interpolated as numpy's _lerp does); nan if any value is nan."""
    ordered = sorted(values)
    if any(map(math.isnan, ordered)):
        return (math.nan,) * 3
    last = len(ordered) - 1
    result = []
    for q in (0.25, 0.5, 0.75):
        index = last * q
        below = math.floor(index) if index < last else -1  # one value: numpy's t is then 1
        a, b, t = ordered[below], ordered[below + 1], index - below
        result.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return tuple(result)
