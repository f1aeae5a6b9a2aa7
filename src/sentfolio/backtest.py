"""Wealth simulation under a per-date weight stream and the five performance
metrics reported per strategy: final capital, fAPV, BV, Sharpe-vs-benchmark,
maximum drawdown and annualized return."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DegenerateInputError, InsufficientDataError
from .portfolio_opt import Weights
from .stats import TestResult, paired_t_test

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
    No transaction costs.
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
    return mean_ratio / (sigma_p / sigma_bh)


def max_drawdown(curve: WealthCurve) -> float:
    """Largest relative drop from any interior point to the terminal value,
    floored at 0: max over t < T of (V_t - V_T) / V_t."""
    v = curve.values
    if len(v) < 2:
        raise InsufficientDataError("curve needs at least 2 points")
    final = v[-1]
    worst = max((x - final) / x for x in v[:-1])
    return max(0.0, worst)


def annualized_return(
    curve: WealthCurve, trading_days_per_year: int = TRADING_DAYS_PER_YEAR
) -> float:
    """fAPV compounded to a one-year horizon: fapv^(252/D) - 1 over D periods."""
    periods = len(curve.values) - 1
    if periods < 1:
        raise InsufficientDataError("curve spans fewer than 2 dates")
    return fapv(curve) ** (trading_days_per_year / periods) - 1.0


def performance_report(
    strategy: str, curve: WealthCurve, bh_curve: WealthCurve
) -> PerfReport:
    return PerfReport(
        strategy=strategy,
        final_capital=curve.final_capital,
        fapv=fapv(curve),
        bv=benchmark_value(curve, bh_curve),
        sharpe_vs_bh=sharpe_vs_bh(curve.simple_returns(), bh_curve.simple_returns()),
        mdd=max_drawdown(curve),
        annualized_return=annualized_return(curve),
    )


def compare_strategies(
    curves: dict[str, WealthCurve],
    bh_name: str = "BuyHold",
    replicate_capitals: tuple[list[float], list[float]] | None = None,
) -> tuple[list[PerfReport], TestResult | None]:
    """Per-strategy metric rows plus, when per-seed replicate final capitals
    for the two LSTM variants are supplied, their paired t-test."""
    if bh_name not in curves:
        raise AlignmentError(f"benchmark strategy {bh_name!r} missing")
    bh = curves[bh_name]
    reports = [performance_report(name, curve, bh) for name, curve in curves.items()]
    ttest = None
    if replicate_capitals is not None:
        with_sent, without_sent = replicate_capitals
        if len(with_sent) < 2:
            raise InsufficientDataError("need >= 2 replicate pairs")
        ttest = paired_t_test(with_sent, without_sent)
    return reports, ttest
