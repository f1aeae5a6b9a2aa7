import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st
from scipy import integrate

from sentfolio.errors import DegenerateInputError, InsufficientDataError, SingularDesignError
from sentfolio.stats import (
    betainc,
    f_sf,
    granger,
    ols,
    paired_t_test,
    pearson,
    student_t_sf,
)


# -- independent numerical-integration oracles ------------------------------

def t_density(x, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def t_sf_oracle(t, df):
    val, _ = integrate.quad(t_density, t, np.inf, args=(df,))
    return val


def f_density(x, d1, d2):
    if x <= 0:
        return 0.0
    lb = (math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2) - math.lgamma(d2 / 2)
          + (d1 / 2) * math.log(d1 / d2) + (d1 / 2 - 1) * math.log(x)
          - ((d1 + d2) / 2) * math.log(1 + d1 * x / d2))
    return math.exp(lb)


def f_sf_oracle(f, d1, d2):
    val, _ = integrate.quad(f_density, f, np.inf, args=(d1, d2), limit=200)
    return val


class TestTailFunctions:
    def test_t_sf_at_zero(self):
        for df in (1, 2, 5, 30.5):
            assert student_t_sf(0.0, df) == 0.5

    def test_f_sf_at_zero(self):
        assert f_sf(0.0, 3, 7) == 1.0

    def test_t_sf_known_value(self):
        # frozen from the quadrature oracle above
        assert student_t_sf(2.0, 10) == pytest.approx(0.03669402, abs=1e-7)

    @pytest.mark.parametrize("t,df", [(0.5, 3), (1.7, 8), (2.9, 21), (-1.2, 5), (4.0, 2)])
    def test_t_sf_matches_quadrature(self, t, df):
        assert student_t_sf(t, df) == pytest.approx(t_sf_oracle(t, df), abs=1e-9)

    @pytest.mark.parametrize("f,d1,d2", [(0.3, 2, 9), (1.5, 4, 17), (3.7, 1, 30), (8.2, 6, 3)])
    def test_f_sf_matches_quadrature(self, f, d1, d2):
        assert f_sf(f, d1, d2) == pytest.approx(f_sf_oracle(f, d1, d2), abs=1e-8)

    @given(st.floats(-8, 8), st.floats(0.5, 60))
    @settings(max_examples=60)
    def test_t_sf_symmetry(self, x, df):
        assert student_t_sf(x, df) + student_t_sf(-x, df) == pytest.approx(1.0, abs=1e-10)

    @given(st.floats(-5, 5), st.floats(1, 40))
    @settings(max_examples=60)
    def test_t_squared_is_f(self, t, df):
        assert f_sf(t * t, 1, df) == pytest.approx(2 * student_t_sf(abs(t), df), abs=1e-8)

    def test_betainc_bounds(self):
        assert betainc(2, 3, 0.0) == 0.0
        assert betainc(2, 3, 1.0) == 1.0
        assert 0.0 < betainc(2, 3, 0.4) < 1.0


class TestPearson:
    def test_perfect_correlation(self):
        r = pearson([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        assert r.statistic == 1.0
        assert r.p_value == 0.0

    def test_perfect_anticorrelation(self):
        r = pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert r.statistic == -1.0

    def test_hand_computed_case(self):
        # r = 10 / sqrt(10 * 14.8) = 0.821995 by direct product-moment arithmetic
        res = pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 6])
        assert res.statistic == pytest.approx(0.8219949, abs=1e-6)
        t = res.statistic * math.sqrt(3 / (1 - res.statistic**2))
        assert res.p_value == pytest.approx(2 * t_sf_oracle(t, 3), abs=1e-9)

    def test_symmetry(self):
        x = [1.0, 4.0, 2.0, 8.0, 5.0]
        y = [2.0, 3.0, 9.0, 1.0, 4.0]
        assert pearson(x, y).statistic == pytest.approx(pearson(y, x).statistic, abs=1e-15)

    @given(st.floats(0.1, 50), st.floats(-100, 100))
    @settings(max_examples=40)
    def test_affine_invariance(self, scale, shift):
        x = np.array([1.0, 4.0, 2.0, 8.0, 5.0])
        y = np.array([2.0, 3.0, 9.0, 1.0, 4.0])
        base = pearson(x, y).statistic
        mapped = pearson(scale * x + shift, y).statistic
        assert mapped == pytest.approx(base, abs=1e-9)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            pearson([1.0, 2.0], [2.0, 1.0])


class TestOls:
    def test_exact_fit(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        y = 2.0 + 3.0 * np.arange(5.0)
        coef, rss = ols(y, X)
        np.testing.assert_allclose(coef, [2.0, 3.0], atol=1e-12)
        assert rss <= 1e-18

    def test_intercept_only_constant(self):
        coef, rss = ols(np.full(4, 7.5), np.ones((4, 1)))
        assert coef[0] == pytest.approx(7.5)
        assert rss == pytest.approx(0.0, abs=1e-24)

    def test_normal_equations_case(self):
        # slope 0.6, intercept 0.5 from the normal equations by hand
        X = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]])
        coef, _ = ols(np.array([1.0, 2.0, 2.0, 3.0]), X)
        np.testing.assert_allclose(coef, [0.5, 0.6], atol=1e-12)

    def test_rank_deficiency(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(SingularDesignError):
            ols(np.arange(5.0), X)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(8, 60), cols=st.integers(2, 6),
           mix=st.none() | st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    def test_rank_check_agrees_with_matrix_rank(self, seed, rows, cols, mix):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((rows, cols))
        if mix is not None:  # the last column a combination of the others
            X[:, -1] = X[:, :-1] @ np.array(mix[:cols - 1], dtype=float)
        y = rng.standard_normal(rows)
        if np.linalg.matrix_rank(X) < cols:
            with pytest.raises(SingularDesignError):
                ols(y, X)
        else:
            coef, _ = ols(y, X)
            assert coef.tobytes() == np.linalg.lstsq(X, y, rcond=None)[0].tobytes()

    @pytest.mark.parametrize("bad", ["X", "y"])
    def test_non_finite_rejected(self, bad):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        y = np.arange(6.0)
        if bad == "X":
            X[2, 1] = np.inf
        else:
            y[3] = np.nan
        with pytest.raises(DegenerateInputError):
            ols(y, X)


class TestGranger:
    def test_constructed_causal_pair(self):
        rng = np.random.default_rng(11)
        n = 300
        s = rng.standard_normal(n)
        r = np.zeros(n)
        for t in range(1, n):
            r[t] = 0.8 * s[t - 1] + 0.05 * rng.standard_normal()
        report = granger(r, s, max_lag=3)
        assert report.lags[0].result.p_value < 0.01

    def test_rss_monotonicity(self):
        rng = np.random.default_rng(5)
        r = rng.standard_normal(200)
        s = rng.standard_normal(200)
        report = granger(r, s, max_lag=8)
        for entry in report.lags:
            assert entry.rss_unrestricted <= entry.rss_restricted + 1e-9

    def test_lag_rows_present(self):
        rng = np.random.default_rng(5)
        report = granger(rng.standard_normal(100), rng.standard_normal(100), max_lag=4)
        assert [e.lag for e in report.lags] == [1, 2, 3, 4]

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientDataError):
            granger(np.arange(10.0), np.arange(10.0), max_lag=4)

    def test_matches_statsmodels(self):
        statsmodels = pytest.importorskip("statsmodels.tsa.stattools")
        rng = np.random.default_rng(3)
        n = 250
        s = rng.standard_normal(n)
        r = np.zeros(n)
        for t in range(1, n):
            r[t] = 0.3 * s[t - 1] + 0.4 * r[t - 1] + rng.standard_normal()
        report = granger(r, s, max_lag=3)
        sm = statsmodels.grangercausalitytests(np.column_stack([r, s]), maxlag=3)
        for lag in (1, 2, 3):
            f_sm, p_sm, _, _ = sm[lag][0]["ssr_ftest"]
            assert report.lags[lag - 1].result.statistic == pytest.approx(f_sm, rel=1e-8)
            assert report.lags[lag - 1].result.p_value == pytest.approx(p_sm, abs=1e-10)

    @staticmethod
    def assert_matches_lstsq_oracle(target, driver, max_lag):
        """Each lag's F and p against the two lag regressions fit here with
        np.linalg.lstsq and the F tail from scipy."""
        report = granger(target, driver, max_lag)
        assert [e.lag for e in report.lags] == list(range(1, max_lag + 1))
        for entry in report.lags:
            n = entry.lag
            y = target[n:]
            lagged = [np.column_stack([x[n - k:x.size - k] for k in range(1, n + 1)])
                      for x in (target, driver)]
            rss = []
            for X in (np.column_stack([np.ones(y.size), lagged[0]]),
                      np.column_stack([np.ones(y.size)] + lagged)):
                coef = np.linalg.lstsq(X, y, rcond=None)[0]
                rss.append(float(np.sum((y - X @ coef) ** 2)))
            df2 = y.size - 2 * n - 1
            f_ref = max(0.0, (rss[0] - rss[1]) / n) / (rss[1] / df2)
            assert entry.result.df == (n, df2)
            assert entry.result.statistic == pytest.approx(f_ref, rel=1e-9, abs=1e-9)
            assert entry.result.p_value == pytest.approx(
                scipy.stats.f.sf(f_ref, n, df2), rel=1e-8, abs=1e-10)

    def test_matches_lstsq_and_scipy(self):
        rng = np.random.default_rng(3)
        n = 250
        s = rng.standard_normal(n)
        r = np.zeros(n)
        for t in range(1, n):
            r[t] = 0.3 * s[t - 1] + 0.4 * r[t - 1] + rng.standard_normal()
        self.assert_matches_lstsq_oracle(r, s, max_lag=3)
        self.assert_matches_lstsq_oracle(s, r, max_lag=8)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(30, 300),
           coupling=st.floats(-1.0, 1.0), lag_cap=st.integers(1, 8))
    def test_matches_lstsq_and_scipy_on_drawn_series(self, seed, rows, coupling, lag_cap):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(rows)
        r = rng.standard_normal(rows)
        r[1:] += coupling * s[:-1]
        self.assert_matches_lstsq_oracle(r, s, max_lag=min(lag_cap, (rows - 2) // 3))


class TestPairedT:
    def test_identical_samples_degenerate(self):
        with pytest.raises(DegenerateInputError):
            paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_unit_differences(self):
        res = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert res.statistic == pytest.approx(2 * math.sqrt(3), abs=1e-12)
        assert res.df == (2,)
        assert res.p_value == pytest.approx(0.0742, abs=2e-4)

    def test_antisymmetry(self):
        a = [3.0, 5.0, 2.0, 8.0]
        b = [1.0, 6.0, 2.5, 4.0]
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.statistic == pytest.approx(-rev.statistic, abs=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)

    def test_reject_flag_consistency(self):
        res = paired_t_test([10.0, 11.0, 12.0, 13.0], [1.0, 2.0, 3.0, 4.1])
        assert res.reject_at_005 == (res.p_value < 0.05)
