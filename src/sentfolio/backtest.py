"""Wealth simulation under a per-date weight stream and the five performance
metrics reported per strategy: final capital, fAPV, BV, Sharpe-vs-benchmark,
maximum drawdown and annualized return.

Where the definitions come from:

* fAPV and MDD follow Jiang, Xu & Liang 2017 (arXiv:1706.10059).  MDD is the
  largest peak-to-trough loss, as in Magdon-Ismail & Atiya 2004 ("Maximum
  drawdown", *Risk*).
* BV and SR are the source paper's (arXiv:2203.05673) benchmark-relative
  columns, both measured against Buy-and-Hold.  The formulas in
  ``benchmark_value`` and ``sharpe_vs_bh`` are this package's reading of
  them, fixed by acceptance criterion 5: both are exactly 1 for Buy-and-Hold
  against itself.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError, ConfigurationError, DegenerateInputError, InsufficientDataError,
)
from .portfolio_opt import Weights

DEFAULT_INITIAL_CAPITAL = 10_000.0
TRADING_DAYS_PER_YEAR = 252
BENCH_RETURN_FLOOR = 1e-8


@dataclass
class WealthCurve:
    dates: list[dt.date]
    values: list[float]
    weights: list[Weights]

    @property
    def initial_capital(self) -> float:
        return self.values[0]

    @property
    def final_capital(self) -> float:
        return self.values[-1]

    def simple_returns(self) -> np.ndarray:
        v = np.asarray(self.values)
        return v[1:] / v[:-1] - 1.0


@dataclass
class PerfReport:
    strategy: str
    final_capital: float
    fapv: float
    bv: float
    sharpe_vs_bh: float
    mdd: float
    annualized_return: float


def run_backtest(
    weights: list[Weights],
    gross_returns: np.ndarray,
    dates: list[dt.date],
    initial_capital: float = DEFAULT_INITIAL_CAPITAL,
) -> WealthCurve:
    """Apply the wealth recursion w_t = w_{t-1} * sum_n(r_n_t * s_n_t).

    ``gross_returns`` is (T, n_assets); ``weights[t]`` is the allocation held
    through day t; ``dates`` has T+1 entries (start date plus one per period).
    No transaction costs.  A wealth that is not a finite normal float, on
    any date, is a ConfigurationError naming ``initial_capital``: every
    return and metric of the curve would read inf, nan or lost bits there.
    """
    gross_returns = np.asarray(gross_returns, dtype=float)
    T = gross_returns.shape[0]
    if len(weights) != T:
        raise AlignmentError(f"{len(weights)} weight rows vs {T} return rows")
    if len(dates) != T + 1:
        raise AlignmentError(f"need {T + 1} dates, got {len(dates)}")
    if (gross_returns <= 0).any():
        raise AlignmentError("gross returns must be positive")
    values = [float(initial_capital)]
    for t in range(T):
        factor = float(weights[t].as_array() @ gross_returns[t])
        values.append(values[-1] * factor)
    v = np.asarray(values)
    outside = ~np.isfinite(v) | (v < np.finfo(float).tiny)
    if outside.any():
        t = int(np.argmax(outside))
        raise ConfigurationError(
            f"initial_capital {initial_capital!r}: the wealth on {dates[t]} is "
            f"{values[t]!r}, outside the range of normal floats")
    return WealthCurve(dates=list(dates), values=values, weights=list(weights))


def fapv(curve: WealthCurve) -> float:
    """Final accumulated portfolio value over initial capital."""
    return curve.final_capital / curve.initial_capital


def benchmark_value(curve: WealthCurve, bh_curve: WealthCurve) -> float:
    """Final strategy value relative to the Buy-and-Hold final value."""
    if curve.dates != bh_curve.dates:
        raise AlignmentError("curves cover different dates")
    return curve.final_capital / bh_curve.final_capital


def sharpe_vs_bh(strategy_returns, bh_returns) -> float:
    """Mean daily return ratio to Buy-and-Hold, over days where the benchmark
    moved, divided by the ratio of return standard deviations.  Equals 1 for
    Buy-and-Hold against itself by construction."""
    r_p = np.asarray(strategy_returns, dtype=float)
    r_bh = np.asarray(bh_returns, dtype=float)
    if r_p.shape != r_bh.shape or r_p.ndim != 1:
        raise AlignmentError("return streams must be 1-D and equal length")
    keep = np.abs(r_bh) >= BENCH_RETURN_FLOOR
    if not keep.any():
        raise DegenerateInputError("benchmark returns all below threshold")
    sigma_bh = float(r_bh.std(ddof=1))
    if sigma_bh == 0.0:
        raise DegenerateInputError("benchmark return stream has zero variance")
    mean_ratio = float(np.mean(r_p[keep] / r_bh[keep]))
    sigma_p = float(r_p.std(ddof=1))
    if sigma_p == 0.0:
        raise DegenerateInputError("strategy return stream has zero variance")
    return mean_ratio / (sigma_p / sigma_bh)


def max_drawdown(curve: WealthCurve) -> float:
    """Largest peak-to-trough loss (Jiang, Xu & Liang 2017): max over t of
    (P_t - V_t) / P_t, where P_t is the running peak max over s <= t of V_s."""
    v = np.asarray(curve.values, dtype=float)
    if v.size < 2:
        raise InsufficientDataError("curve needs at least 2 points")
    peak = np.maximum.accumulate(v)
    return float(np.max((peak - v) / peak))


def annualized_return(curve: WealthCurve) -> float:
    """fAPV compounded to a one-year horizon: fapv^(252/D) - 1 over D periods."""
    periods = len(curve.values) - 1
    if periods < 1:
        raise InsufficientDataError("curve spans fewer than 2 dates")
    return fapv(curve) ** (TRADING_DAYS_PER_YEAR / periods) - 1.0


def performance_report(
    strategy: str, curve: WealthCurve, bh_curve: WealthCurve
) -> PerfReport:
    """The metric row of ``strategy``.  A metric that is undefined on these
    curves, or overflows a float, is a DegenerateInputError naming it."""
    try:
        with np.errstate(over="raise"):
            return PerfReport(
                strategy=strategy,
                final_capital=curve.final_capital,
                fapv=fapv(curve),
                bv=benchmark_value(curve, bh_curve),
                sharpe_vs_bh=sharpe_vs_bh(curve.simple_returns(), bh_curve.simple_returns()),
                mdd=max_drawdown(curve),
                annualized_return=annualized_return(curve),
            )
    except (FloatingPointError, OverflowError) as exc:
        raise DegenerateInputError(f"{strategy}: a metric overflows ({exc.args[-1]})") from exc
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"{strategy}: {exc}") from exc


def compare_strategies(curves: dict[str, WealthCurve], bh_name: str) -> list[PerfReport]:
    """The metric row of each strategy, measured against ``bh_name``'s curve."""
    if bh_name not in curves:
        raise AlignmentError(f"benchmark strategy {bh_name!r} missing")
    bh = curves[bh_name]
    return [performance_report(name, curve, bh) for name, curve in curves.items()]
