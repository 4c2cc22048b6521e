import datetime as dt
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlca_trends import stats
from mlca_trends.errors import DegenerateDataError, StatsError
from mlca_trends.stats import (
    breusch_pagan_studentized,
    durbin_watson,
    exp_trend,
    feasible_weights,
    median,
    quartiles,
    shapiro_wilk,
    to_fractional_year,
    wls_fit,
)


def hand_ols(x, y):
    """Independent textbook OLS, deliberately coded apart from wls_fit."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    b = np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
    a = y.mean() - b * x.mean()
    return a, b


class TestWlsFit:
    def test_fits_compare_to_a_bool(self):
        x, y = [1.0, 2.0, 3.0, 4.0], [1.0, 2.5, 2.9, 4.2]
        fit = wls_fit(x, y)
        assert (fit == fit) is True
        assert (fit == wls_fit(x, y)) is False  # compared by identity

    def test_unit_weights_match_independent_ols(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-5, 5, 50)
        y = 1.7 - 0.9 * x + rng.normal(size=50)
        fit = wls_fit(x, y)
        a, b = hand_ols(x, y)
        assert fit.intercept == pytest.approx(a, abs=1e-10)
        assert fit.slope == pytest.approx(b, abs=1e-10)

    def test_independent_se_formulas(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 10, 40)
        y = 2 + 0.5 * x + rng.normal(size=40)
        fit = wls_fit(x, y)
        e = y - (fit.intercept + fit.slope * x)
        s2 = np.sum(e**2) / (40 - 2)
        sxx = np.sum((x - x.mean()) ** 2)
        assert fit.standard_errors[1] == pytest.approx(math.sqrt(s2 / sxx), rel=1e-10)
        assert fit.standard_errors[0] == pytest.approx(
            math.sqrt(s2 * (1 / 40 + x.mean() ** 2 / sxx)), rel=1e-10
        )

    def test_noiseless_line_any_weights(self):
        x = np.arange(10.0)
        y = 2.0 + 3.0 * x
        fit = wls_fit(x, y, weights=np.linspace(0.5, 4.0, 10))
        assert fit.intercept == pytest.approx(2.0, abs=1e-12)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.adj_r2 == pytest.approx(1.0, abs=1e-12)
        # residuals are at rounding level, so F blows up (or is exactly inf)
        assert fit.f_statistic > 1e12 and fit.f_pvalue < 1e-12

    def test_known_weights_recover_within_3se_over_seeds(self):
        fails = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 5, 120)
            sd = 0.2 * np.exp(0.4 * x)
            y = 2.0 + 3.0 * x + rng.normal(size=120) * sd
            fit = wls_fit(x, y, 1.0 / sd**2)
            ta = abs(fit.intercept - 2.0) / fit.standard_errors[0]
            tb = abs(fit.slope - 3.0) / fit.standard_errors[1]
            fails += (ta > 3) or (tb > 3)
        # 3 SE covers ~99.3% per seed; a couple of misses in 100 is nominal
        assert fails <= 3

    def test_weighted_residuals_sum_to_zero(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 30)
        y = rng.normal(size=30)
        w = rng.uniform(0.1, 5.0, 30)
        fit = wls_fit(x, y, w)
        assert abs(np.dot(w, fit.residuals)) < 1e-8 * np.dot(w, np.abs(y))

    def test_scale_equivariance_in_y(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 25)
        y = rng.normal(size=25)
        w = rng.uniform(0.5, 2.0, 25)
        f1 = wls_fit(x, y, w)
        f2 = wls_fit(x, 10.0 * y, w)
        assert f2.coefficients == pytest.approx([10.0 * c for c in f1.coefficients], rel=1e-12)

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, 25)
        y = rng.normal(size=25)
        w = rng.uniform(0.5, 2.0, 25)
        f1 = wls_fit(x, y, w)
        f2 = wls_fit(x, y, 37.5 * w)
        assert f2.coefficients == pytest.approx(f1.coefficients, rel=1e-12)
        assert f2.standard_errors == pytest.approx(f1.standard_errors, rel=1e-12)

    def test_degenerate_predictor_rejected(self):
        with pytest.raises(DegenerateDataError):
            wls_fit([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])

    def test_sums_past_the_float_range_are_a_stats_error(self):
        # fsum raises where numpy's sums gave inf or nan; both end as StatsError
        with pytest.raises(StatsError, match="overflow"):
            wls_fit([1e308, 1e308, 0.0], [1.0, 2.0, 3.0])
        with pytest.raises(StatsError, match="overflow"):
            wls_fit([0.0, 1.0, 2.0], [1e308, 1e308, 0.0])

    def test_length_mismatch_and_bad_weights(self):
        with pytest.raises(StatsError):
            wls_fit([1, 2, 3], [1, 2])
        with pytest.raises(StatsError):
            wls_fit([1, 2, 3], [1, 2, 3], [1.0, 0.0, 1.0])
        with pytest.raises(StatsError):
            wls_fit([1, 2], [1, 2])


class TestFeasibleWeights:
    def test_homoscedastic_near_constant(self):
        # fixed synthetic fixture: log(e^2) carries high sampling variance,
        # so the bound is for this dataset, not every seed
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 10, 200)
        e = rng.normal(size=200)
        w = feasible_weights(x, e)
        assert max(w) / min(w) < 2.0

    def test_decreasing_where_variance_grows(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 6, 300)
        e = rng.normal(size=300) * np.exp(0.5 * x)
        w = feasible_weights(x, e)
        # fitted weights are monotone in x for a linear log-variance model
        assert w[0] > w[-1]
        assert np.all(np.diff(w) <= 0)

    def test_equal_residuals_give_exactly_constant_weights(self):
        x = np.arange(12.0)
        w = feasible_weights(x, np.full(12, 0.3))
        assert set(w) == {w[0]}
        assert math.fsum(w) / len(w) == pytest.approx(1.0)

    def test_zero_residuals_floored(self):
        x = np.arange(10.0)
        w = feasible_weights(x, np.zeros(10))
        assert all(map(math.isfinite, w)) and min(w) > 0


class TestDurbinWatson:
    def test_constant_residuals_give_zero(self):
        d, p = durbin_watson([1.0, 1.0, 1.0, 1.0])
        assert d == 0.0

    def test_alternating_residuals_give_three(self):
        # diffs (-2, 2, -2): sum 12; energy 4 -> exactly 3
        d, _ = durbin_watson([1.0, -1.0, 1.0, -1.0])
        assert d == 3.0

    def test_always_in_0_4(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            e = rng.normal(size=rng.integers(2, 40))
            if not np.any(e):
                continue
            d, p = durbin_watson(e)
            assert 0.0 <= d <= 4.0
            assert 0.0 <= p <= 1.0

    def test_white_noise_concentrates_near_two(self):
        hits = 0
        for seed in range(500):
            e = np.random.default_rng(seed).normal(size=500)
            d, _ = durbin_watson(e)
            hits += 1.8 <= d <= 2.2
        assert hits / 500 >= 0.95

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateDataError):
            durbin_watson(np.zeros(5))


class TestBreuschPagan:
    def test_statistic_equals_n_when_e2_linear_in_x(self):
        x = np.linspace(1, 2, 40)
        e = np.sqrt(3.0 * x + 0.5)  # squared residuals exactly linear in x
        stat, p = breusch_pagan_studentized(x, e)
        assert stat == pytest.approx(40.0, rel=1e-9)
        assert p < 1e-6

    def test_statistic_near_zero_when_orthogonal(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0] * 8)
        # e^2 symmetric in x -> zero correlation with x by construction
        e = np.sqrt(x**2 + 1.0)
        stat, p = breusch_pagan_studentized(x, e)
        assert stat == pytest.approx(0.0, abs=1e-9)
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_homoscedastic_rejection_rate_near_nominal(self):
        rejections = 0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 1, 100)
            e = rng.normal(size=100)
            _, p = breusch_pagan_studentized(x, e)
            rejections += p < 0.05
        assert 0.03 <= rejections / 1000 <= 0.07

    def test_degenerate_predictor_rejected(self):
        with pytest.raises(DegenerateDataError):
            breusch_pagan_studentized(np.ones(10), np.random.default_rng(0).normal(size=10))


def test_diagnostics_are_none_when_the_residuals_do_not_vary():
    assert stats.diagnostics([1.0, 2.0, 3.0, 4.0], [0.0] * 4) is None
    report = stats.diagnostics([1.0, 2.0, 3.0, 4.0], [0.5, -1.0, 1.0, -0.5])
    assert list(report) == ["shapiro_wilk", "breusch_pagan_studentized", "durbin_watson"]


class TestShapiroWilk:
    def test_exact_normal_quantiles_score_high(self):
        from scipy.stats import norm

        n = 50
        sample = norm.ppf((np.arange(1, n + 1) - 0.375) / (n + 0.25))
        w, _ = shapiro_wilk(sample)
        assert w > 0.99

    def test_rejects_exponential_samples(self):
        rejected = sum(
            shapiro_wilk(np.random.default_rng(seed).exponential(size=100))[1] < 0.01
            for seed in range(200)
        )
        assert rejected / 200 >= 0.95

    def test_accepts_normal_samples(self):
        accepted = sum(
            shapiro_wilk(np.random.default_rng(10_000 + seed).normal(size=100))[1] > 0.05
            for seed in range(200)
        )
        assert accepted / 200 >= 0.90

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        sample = rng.normal(size=80)
        w1, _ = shapiro_wilk(sample)
        w2, _ = shapiro_wilk(5.0 * sample - 3.0)
        assert w1 == pytest.approx(w2, rel=1e-9)

    def test_preconditions(self):
        with pytest.raises(StatsError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(DegenerateDataError):
            shapiro_wilk([3.0, 3.0, 3.0, 3.0])
        with pytest.raises(StatsError, match="overflows"):
            shapiro_wilk([-1e308, 0.0, 1e308])


def _oracle_shapiro(sample) -> tuple[float, float]:
    from scipy.stats import shapiro

    w, p = shapiro(sample)
    return float(w), float(p)


_SW_SIZES = [*range(3, 61), 100, 500, 1000, 2500, 5000]
_SW_KINDS = {
    "normal": lambda rng, n: rng.normal(size=n),
    "cauchy": lambda rng, n: rng.standard_cauchy(size=n),
    "tied": lambda rng, n: np.round(rng.normal(size=n), 1),
    "lognormal": lambda rng, n: rng.lognormal(size=n) * 1e6,
}


class TestShapiroWilkMatchesScipy:
    """The pure-Python AS R94 port equals scipy.stats.shapiro bit for bit."""

    @pytest.mark.parametrize("kind", sorted(_SW_KINDS))
    def test_every_size_and_sample_kind(self, kind):
        rng = np.random.default_rng(sorted(_SW_KINDS).index(kind))
        for n in _SW_SIZES:
            sample = _SW_KINDS[kind](rng, n)
            if np.ptp(sample) == 0.0:  # a tied draw can be constant at n = 3
                continue
            assert shapiro_wilk(sample) == _oracle_shapiro(sample), (kind, n)

    def test_far_upper_tail_of_a_large_cauchy_sample(self):
        # z lies between AS 66's textbook cut-off (18.66) and scipy's (38).
        sample = np.random.default_rng(0).standard_cauchy(size=5000)
        w, p = shapiro_wilk(sample)
        assert 0.0 < p < 1e-80
        assert (w, p) == _oracle_shapiro(sample)

    def test_samples_on_the_coefficients_where_w_rounds_to_one(self):
        swilk = pytest.importorskip("scipy.stats._ansari_swilk_statistics").swilk
        at_or_above_one = 0
        for n in [*range(3, 40), 1000, 5000]:
            a = np.zeros(n // 2)
            swilk(np.arange(float(n)), a, False)  # fills the AS R94 coefficients
            sample = 7.77 * np.concatenate([-a, np.zeros(n % 2), a[::-1]]) + 0.5
            at_or_above_one += _oracle_shapiro(sample)[0] >= 1.0
            assert shapiro_wilk(sample) == _oracle_shapiro(sample), n
        assert at_or_above_one > 0  # the log(1 - W) <= 0 path ran

    def test_sample_range_below_1e_19(self):
        sample = [0.0, 1e-20, 3e-20, 2e-20]
        with pytest.warns(UserWarning, match="range"):
            assert shapiro_wilk(sample) == _oracle_shapiro(sample) == (1.0, 1.0)

    @pytest.mark.parametrize("n", [5001, 5735, 8000, 19066])
    def test_past_5000_values_warns_as_scipy_does(self, n):
        rng = np.random.default_rng(n)
        for sample in (rng.normal(size=n), rng.standard_t(3.0, size=n)):
            with pytest.warns(UserWarning, match=f"above 5000 values, got {n}"):
                ours = shapiro_wilk(sample)
            with pytest.warns(UserWarning, match="N > 5000"):
                assert ours == _oracle_shapiro(sample)


def f_tail_exact(f, dof):
    """P(F > f) for F ~ F(1, dof) to 40 digits: I_x(dof/2, 1/2) at x = dof/(dof + f)
    from mpmath's 2F1 (DLMF 8.17.8), through the complement where x is within
    1e-20 of 1, which 40 digits cannot tell from 1. Below 1e-300 it gives a
    bound instead, which tail_error skips."""
    with mpmath.workdps(40):
        d, f = mpmath.mpf(dof), mpmath.mpf(f)
        a, b = d / 2, mpmath.mpf(1) / 2
        x, y = d / (d + f), f / (d + f)
        front = x**a * y**b / mpmath.beta(a, b)
        if y < mpmath.mpf("1e-20"):
            return 1 - front / b * mpmath.hyp2f1(a + b, 1, b + 1, y)
        if front / (a * y) < mpmath.mpf("1e-300"):
            return front / (a * y)  # the 2F1 is at most 1/y: p is out of the tested range
        return front / a * mpmath.hyp2f1(a + b, 1, a + 1, x)


def chi2_tail_exact(x):
    with mpmath.workdps(40):
        return mpmath.erfc(mpmath.sqrt(mpmath.mpf(x) / 2))


def normal_cdf_exact(z):
    with mpmath.workdps(40):
        return mpmath.ncdf(mpmath.mpf(z))


def durbin_watson_p_exact(d, n):
    """P(Z <= z) at z = (d - 2) / (2 / sqrt(n)), to 40 digits."""
    with mpmath.workdps(40):
        return mpmath.ncdf((mpmath.mpf(d) - 2) * mpmath.sqrt(n) / 2)


def tail_error(p: float, exact) -> float:
    """Relative error of a p-value; 0 where the exact value is below 1e-300,
    where a float tail may underflow."""
    with mpmath.workdps(40):
        return 0.0 if exact < mpmath.mpf("1e-300") else float(abs(mpmath.mpf(p) / exact - 1))


# Bounds on the relative error of each tail against mpmath, for p >= 1e-300.
# On the seed-14 grid below scipy.special reaches 2.3e-13 (fdtrc), 1.05e-13
# (chdtrc) and 1.43e-13 (ndtr).
F_TAIL_BOUND = 5e-13
CHI2_NORMAL_BOUND = 2e-13


class TestTailsMatchScipyStats:
    """The F, chi-square and normal tails stand in for scipy.stats' f.sf,
    chi2.sf and norm.cdf: against mpmath at 40 digits they are as accurate
    as scipy's."""

    def test_f_pvalue(self):
        rng = np.random.default_rng(5)
        grid = np.concatenate([[0.0, 1e-300], 10.0 ** rng.uniform(-12, 4, 200),
                               rng.uniform(0.0, 50.0, 100)])
        fit = wls_fit([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 3.0, 2.0])
        for dof in [*range(1, 40), 100, 4998]:
            for f_stat in map(float, grid):
                result = fit._replace(f_statistic=f_stat, f_df=(1, dof))
                assert tail_error(result.f_pvalue, f_tail_exact(f_stat, dof)) <= F_TAIL_BOUND, \
                    (f_stat, dof)

    def test_rounding_negative_f_has_p_one(self):
        fit = wls_fit([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 3.0, 2.0])
        assert fit._replace(f_statistic=-1e-15).f_pvalue == 1.0
        assert fit._replace(f_statistic=math.inf).f_pvalue == 0.0

    def test_breusch_pagan_and_durbin_watson(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(3, 200))
            x = rng.normal(size=n)
            e = rng.standard_t(3.0, size=n) * (1.0 + float(rng.uniform(0.0, 2.0)) * np.abs(x))
            stat, p = breusch_pagan_studentized(x, e)
            assert tail_error(p, chi2_tail_exact(stat)) <= CHI2_NORMAL_BOUND
            d, p = durbin_watson(e)
            assert tail_error(p, durbin_watson_p_exact(d, n)) <= CHI2_NORMAL_BOUND

    @pytest.mark.parametrize("tail", ["f", "chi2", "normal"])
    def test_each_tail_on_a_wide_grid(self, tail):
        rng = np.random.default_rng(14)
        d = rng.integers(1, 5000, 3000)
        f = np.concatenate([[0.0, 1e300], 10.0 ** rng.uniform(-12, 6, 2998)])
        x = np.concatenate([[0.0], 10.0 ** rng.uniform(-12, 4, 2999)])
        z = np.concatenate([[-40.0, 40.0], rng.normal(scale=10.0, size=2998)])
        cases = {  # generators: only the tail under test is computed
            "f": ((stats._f_upper_tail(dof, v), f_tail_exact(v, dof), F_TAIL_BOUND)
                  for dof, v in zip(map(int, d), map(float, f))),
            "chi2": ((stats._chi2_upper_tail(v), chi2_tail_exact(v), CHI2_NORMAL_BOUND)
                     for v in map(float, x)),
            "normal": ((stats._normal_cdf(v), normal_cdf_exact(v), CHI2_NORMAL_BOUND)
                       for v in map(float, z)),
        }
        for ours, exact, bound in cases[tail]:
            assert tail_error(ours, exact) <= bound, (ours, exact)

    def test_f_tail_up_to_a_million_dof(self):
        # Near x = 1 a large dof makes a continued fraction or a power series
        # lose digits or converge slowly; the asymptotic expansion serves there.
        rng = np.random.default_rng(5)
        grid = np.concatenate([10.0 ** rng.uniform(-12, 4, 60), rng.uniform(0.0, 50.0, 60)])
        for dof in (10_000, 31_623, 100_000, 316_228, 1_000_000):
            for f_stat in map(float, grid):
                assert tail_error(stats._f_upper_tail(dof, f_stat), f_tail_exact(f_stat, dof)) \
                    <= F_TAIL_BOUND, (f_stat, dof)


class TestExpTrend:
    def test_annual_doubling(self):
        series = [(dt.date(2015 + k, 1, 1), 2.0**k) for k in range(6)]
        fit = exp_trend(series)
        assert fit.growth_factor == pytest.approx(2.0, rel=1e-12)
        assert fit.cagr_pct == pytest.approx(100.0, rel=1e-12)
        assert fit.doubling_time_years == pytest.approx(1.0, rel=1e-12)

    def test_constant_series(self):
        series = [(dt.date(2015 + k, 1, 1), 5.0) for k in range(5)]
        fit = exp_trend(series)
        assert fit.slope_per_year == pytest.approx(0.0, abs=1e-12)
        assert fit.cagr_pct == pytest.approx(0.0, abs=1e-10)
        assert math.isnan(fit.doubling_time_years)

    def test_unit_invariance_of_slope(self):
        rng = np.random.default_rng(4)
        series = [
            (dt.date(2010 + k, 3, 14), float(v))
            for k, v in enumerate(rng.uniform(1, 10, 8))
        ]
        f1 = exp_trend(series)
        f2 = exp_trend([(d, 1000.0 * v) for d, v in series])
        assert f2.slope_per_year == pytest.approx(f1.slope_per_year, rel=1e-12)
        assert f2.cagr_pct == pytest.approx(f1.cagr_pct, rel=1e-12)

    def test_non_positive_values_excluded(self):
        series = [
            (dt.date(2020, 1, 1), 1.0),
            (dt.date(2021, 1, 1), 0.0),
            (dt.date(2022, 1, 1), 2.0),
            (dt.date(2023, 1, 1), 4.0),
        ]
        fit = exp_trend(series)
        assert fit.n_used == 3 and fit.n_excluded == 1

    def test_too_few_positive_values(self):
        with pytest.raises(StatsError):
            exp_trend([(dt.date(2020, 1, 1), 1.0), (dt.date(2021, 1, 1), -1.0)])

    def test_growth_factor_past_the_float_range_is_a_stats_error(self):
        series = [(dt.date(2020, 1, 1), 1e-300), (dt.date(2020, 1, 2), 1e300),
                  (dt.date(2020, 1, 4), 1e300)]
        with pytest.raises(StatsError, match="float range"):
            exp_trend(series)

    def test_feasible_wls_equals_ols_on_exact_data(self):
        series = [(dt.date(2019 + k, 1, 1), 3.0 * 1.5**k) for k in range(5)]
        assert exp_trend(series, "feasible_wls").growth_factor == pytest.approx(
            exp_trend(series, "ols").growth_factor, rel=1e-9
        )

    def test_unknown_weighting(self):
        with pytest.raises(StatsError):
            exp_trend([(2020, 1.0), (2021, 2.0), (2022, 4.0)], weighting="huber")


def test_fractional_year_conversion():
    assert to_fractional_year(dt.date(2020, 1, 1)) == 2020.0
    assert to_fractional_year(2021.5) == 2021.5
    assert to_fractional_year(dt.date(2020, 12, 31)) == pytest.approx(2020.999, abs=1e-3)
    with pytest.raises(StatsError):
        to_fractional_year("2020-01-01")


# Values numpy's median and percentile must survive: infinities, nan,
# subnormals, signed zeros, pairs whose sum overflows, and repeats.
_EDGES = [math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, 0.0, -0.0,
          1.7e308, -1.7e308, 1.0, 1.0 + 2**-52, 3.0]
_SAMPLES = st.one_of(
    st.lists(st.one_of(st.floats(), st.sampled_from(_EDGES)), min_size=1, max_size=300),
    st.lists(st.sampled_from(_EDGES[3:]), min_size=1, max_size=300),  # no nan; many repeats
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=300),
)


def _same(a: float, b: float) -> bool:
    """Equal floats, or both nan. numpy may give 0.0 where a helper gives -0.0;
    their callers never see -0.0, since math.log never yields it."""
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_SAMPLES)
def test_median_is_numpys(values):
    with np.errstate(all="ignore"):
        expected = float(np.median(values))
    assert _same(median(values), expected)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_SAMPLES)
def test_quartiles_are_numpys_linear_percentiles(values):
    with np.errstate(all="ignore"):
        expected = np.percentile(values, [25, 50, 75])
    assert all(map(_same, quartiles(values), map(float, expected))), (quartiles(values), expected)


def test_median_of_nothing_is_nan():
    assert math.isnan(median([]))


def _composed_trend(points, weighting: str) -> stats.TrendFit:
    """exp_trend as the public fits compose it: OLS, then feasible_weights of
    its residuals and a weighted refit. The oracle of the shared-x kernel."""
    kept = [(d, v) for d, v in points if v > 0]
    if len(kept) < 3:
        raise StatsError("need at least 3 positive values")
    x = [to_fractional_year(d) for d, _ in kept]
    y = [math.log(v) for _, v in kept]
    fit = wls_fit(x, y)
    if weighting == "feasible_wls":
        fit = wls_fit(x, y, feasible_weights(x, fit.residuals))
    try:
        growth = math.exp(fit.slope)
    except OverflowError:
        raise StatsError("growth past the float range") from None
    return stats.TrendFit(fit.slope, fit.intercept, growth, 100.0 * (growth - 1.0),
                          math.log(2.0) / fit.slope if fit.slope > 0 else math.nan,
                          weighting, len(kept), len(points) - len(kept), fit)


def _trend_bits(fit) -> str:
    """Every TrendFit field and the regression's coefficients, SEs, r², F,
    residuals and weights, as exact reprs (nan equal to nan)."""
    r = fit.regression
    return repr((*fit[:-1], r.coefficients, r.standard_errors, r.r2, r.adj_r2, r.f_statistic,
                 r.f_df, r.n, list(r.residuals), list(r.weights)))


@st.composite
def trend_tables(draw):
    """A table's dates, drawn from a few days so that they repeat (one day
    makes them constant), and two value columns over them with non-positive
    values among the positive ones; 3-point tables included."""
    days = draw(st.lists(st.integers(0, 4000), min_size=1, max_size=6))
    dates = draw(st.lists(st.sampled_from([dt.date(2012, 1, 1) + dt.timedelta(days=d)
                                           for d in days]), min_size=3, max_size=40))
    value = st.one_of(st.floats(1e-6, 1e9), st.sampled_from([0.0, -1.0, 1.0]))
    columns = [draw(st.lists(value, min_size=len(dates), max_size=len(dates)))
               for _ in range(2)]
    return dates, columns


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(trend_tables(), st.sampled_from(["ols", "feasible_wls"]))
def test_shared_x_fits_equal_the_composed_fits_bit_for_bit(table, weighting):
    """Both columns fit over one SharedX, as trend_stage fits a table's
    series, and each as (date, value) pairs: every result is the composed
    fit's, and a series the composition cannot fit raises StatsError."""
    dates, columns = table
    x = stats.SharedX("d", map(to_fractional_year, dates))
    for values in columns:
        points = list(zip(dates, values))
        try:
            expected = _trend_bits(_composed_trend(points, weighting))
        except StatsError:
            for call in (lambda: exp_trend(values, weighting, x),
                         lambda: exp_trend(points, weighting)):
                with pytest.raises(StatsError):
                    call()
            continue
        assert _trend_bits(exp_trend(values, weighting, x)) == expected
        assert _trend_bits(exp_trend(points, weighting)) == expected
