"""Hypothesis tests: Pearson correlation, bivariate Granger causality, paired
t-test, plus the t/F tail probabilities they need (via the regularized
incomplete beta function)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InsufficientDataError, SingularDesignError

ALPHA = 0.05

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 300
_TINY = 1e-300


@dataclass
class TestResult:
    statistic: float
    df: tuple[float, ...]
    p_value: float

    @property
    def reject_at_005(self) -> bool:
        return self.p_value < ALPHA


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if t == 0.0:
        return 0.5
    tail = 0.5 * betainc(df / 2.0, 0.5, df / (df + t * t))
    return tail if t > 0 else 1.0 - tail


def f_sf(f: float, df1: float, df2: float) -> float:
    """P(F > f) for the F distribution with (df1, df2) degrees of freedom."""
    if df1 <= 0 or df2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f < 0:
        raise ValueError("F statistic must be non-negative")
    if f == 0.0:
        return 1.0
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def two_sided_t_p(t: float, df: float) -> float:
    return min(1.0, 2.0 * student_t_sf(abs(t), df))


def pearson(x, y) -> TestResult:
    """Product-moment correlation with a two-sided Student-t p-value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DegenerateInputError("series must be 1-D and equal length")
    n = x.size
    if n < 3:
        raise InsufficientDataError("pearson needs n >= 3")
    xd = x - x.mean()
    yd = y - y.mean()
    sxx = float(xd @ xd)
    syy = float(yd @ yd)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInputError("zero-variance series")
    r = float(xd @ yd) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) == 1.0:
        return TestResult(statistic=r, df=(df,), p_value=0.0)
    t = r * math.sqrt(df / (1.0 - r * r))
    return TestResult(statistic=r, df=(df,), p_value=two_sided_t_p(t, df))


def ols(y, X) -> tuple[np.ndarray, float]:
    """Least squares via SVD-based lstsq (LAPACK gelsd); returns
    (coefficients, rss).  The rank is lstsq's, which counts the singular
    values above ``S.max() * max(M, N) * eps``, as ``matrix_rank`` does."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise DegenerateInputError("shape mismatch between y and X")
    if X.shape[0] <= X.shape[1]:
        raise InsufficientDataError("need more rows than regressors")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DegenerateInputError("non-finite value in y or X")
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise SingularDesignError("regressor matrix is rank deficient")
    resid = y - X @ coef
    return coef, float(resid @ resid)


def _lag_matrix(series: np.ndarray, n_lags: int, start: int) -> np.ndarray:
    """Columns series[t-1], ..., series[t-n_lags] for t = start..end."""
    T = series.size
    return np.column_stack(
        [series[start - k : T - k] for k in range(1, n_lags + 1)]
    )


def granger(target, driver, max_lag: int) -> list[TestResult]:
    """Bivariate Granger causality of ``driver`` on ``target``: one F test
    per lag, entry n - 1 for lag n, with df = (n, T - 2n - 1).

    For each lag n the restricted model regresses the target on its own n lags
    and an intercept; the unrestricted model adds n driver lags.  Both are fit
    on the same sample window (the first max-available n rows dropped once per
    lag), and compared with the nested-model F statistic
    F = ((RSS_r - RSS_u)/n) / (RSS_u/(T - 2n - 1)) with T usable rows.
    """
    target = np.asarray(target, dtype=float)
    driver = np.asarray(driver, dtype=float)
    if target.shape != driver.shape or target.ndim != 1:
        raise DegenerateInputError("series must be 1-D and equal length")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if target.size <= 3 * max_lag + 1:
        raise InsufficientDataError(
            f"need more than {3 * max_lag + 1} rows for max_lag={max_lag}"
        )
    results = []
    for n in range(1, max_lag + 1):
        y = target[n:]
        T = y.size
        df2 = T - 2 * n - 1
        if df2 < 1:
            raise InsufficientDataError(f"not enough rows at lag {n}")
        intercept = np.ones((T, 1))
        own = _lag_matrix(target, n, n)
        other = _lag_matrix(driver, n, n)
        _, rss_r = ols(y, np.hstack([intercept, own]))
        _, rss_u = ols(y, np.hstack([intercept, own, other]))
        if rss_u <= 0:
            f_stat = math.inf
            p = 0.0
        else:
            f_stat = max(0.0, (rss_r - rss_u) / n) / (rss_u / df2)
            p = f_sf(f_stat, n, df2)
        results.append(TestResult(statistic=f_stat, df=(n, df2), p_value=p))
    return results


def paired_t_test(a, b) -> TestResult:
    """Two-sided paired t-test on equal-length samples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DegenerateInputError("samples must be 1-D and equal length")
    n = a.size
    if n < 2:
        raise InsufficientDataError("paired t-test needs n >= 2")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateInputError("zero-variance differences")
    t = float(d.mean()) / (sd / math.sqrt(n))
    df = n - 1
    return TestResult(statistic=t, df=(df,), p_value=two_sided_t_p(t, df))
