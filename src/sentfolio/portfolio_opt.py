"""Monte-Carlo mean-variance selection and the benchmark allocation strategies.

Portfolio weights live on the probability simplex (long-only, fully
invested).  The optimizer draws random portfolios uniformly on the simplex,
scores each by Sharpe ratio and keeps the best.

One draw serves several forecasts.  ``Moments.mu`` may hold V expected-return
rows that share one covariance; the samples and their variances are computed
once, and every row is scored on them.  This is by design: the LSTM variants
are compared on common random numbers (Glasserman 2004, *Monte Carlo Methods
in Financial Engineering*, 4.2), so their weights differ only through their
forecasts.  Each row is scored with its own GEMV, ``W @ mu_v``: stacking the
rows into one GEMM (``W @ mus.T``) changes the bits of the returns, and a
row's pick would then depend on which other rows came with it.

One workspace serves every day of a backtest.  A 50 000 x 5 selection needs
about 5 MB of arrays: the draws, their transpose and three count-length
buffers.  When each day allocates them afresh, glibc hands them back to the
OS and the next day faults them in again: about 1 200 minor page faults per
day, 480 000 per pass of the 400-day ``allocate`` benchmark.  So
``predictive_weights`` builds one ``MonteCarloWorkspace`` per call and passes
it down to ``frontier_samples`` on every day.  It is per call, not cached at
module level: a cache would outlive the backtest and share mutable arrays
between callers, and in a trial it raised the peak memory of ``allocate`` by
9%, where one workspace per call lowered it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarketError, DimensionError, InsufficientDataError, ValidationError

WEIGHT_TOL = 1e-9
VOL_FLOOR = 1e-12
DEFAULT_SAMPLE_COUNT = 50_000
DEFAULT_COV_WINDOW = 50


@dataclass(frozen=True)
class Weights:
    values: tuple[float, ...]

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("weights must be a non-empty vector")
        if (arr < -WEIGHT_TOL).any():
            raise ValidationError(f"negative weight in {self.values}")
        if abs(arr.sum() - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"weights sum to {arr.sum()}, expected 1")

    @classmethod
    def from_array(cls, arr) -> "Weights":
        return cls(values=tuple(float(v) for v in arr))

    @classmethod
    def equal(cls, n: int) -> "Weights":
        return cls(values=tuple(1.0 / n for _ in range(n)))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass
class Moments:
    """Per-period expected returns and covariance of the asset universe.

    ``mu`` is one row (n,) or V rows (V, n) of expected returns, one per
    forecast, all sharing ``cov``.
    """

    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.mu.ndim not in (1, 2):
            raise DimensionError(f"mu must be (n,) or (V, n), got shape {self.mu.shape}")
        n = self.mu.shape[-1]
        if self.cov.shape != (n, n):
            raise DimensionError(f"cov shape {self.cov.shape} != ({n}, {n})")
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise ValidationError("covariance matrix not symmetric")
        eigvals = np.linalg.eigvalsh(self.cov)
        if eigvals.min() < -1e-10:
            raise ValidationError(f"covariance not PSD (min eigenvalue {eigvals.min()})")


@dataclass
class FrontierSample:
    weights: Weights
    exp_return: float
    volatility: float
    sharpe: float


class MonteCarloWorkspace:
    """Arrays of one Monte-Carlo selection, reusable from day to day.

    ``W`` holds the (count, n) simplex samples and ``cols`` their (n, count)
    transpose; ``total``, ``variance``, ``term`` and ``flat`` are count-long
    buffers for the row sums, the variances (then volatilities), one product
    term and the zero-volatility mask.  Each use overwrites them all.
    """

    __slots__ = ("W", "cols", "total", "variance", "term", "flat")

    def __init__(self, count: int, n_assets: int):
        if n_assets < 1 or count < 1:
            raise DimensionError("n_assets and count must be >= 1")
        self.W = np.empty((count, n_assets))
        self.cols = np.empty((n_assets, count))
        self.total = np.empty(count)
        self.variance = np.empty(count)
        self.term = np.empty(count)
        self.flat = np.empty(count, dtype=bool)


def sample_simplex(n_assets: int, count: int, seed: int) -> np.ndarray:
    """(count, n_assets) weights uniform on the simplex: normalized
    i.i.d. unit-exponential draws. Deterministic per seed."""
    ws = MonteCarloWorkspace(count, n_assets)
    _draw_simplex(ws, seed)
    return ws.W


def _draw_simplex(ws: MonteCarloWorkspace, seed: int) -> None:
    """Fill ``ws.W`` with ``sample_simplex``'s draws and ``ws.cols`` with
    their transpose."""
    W, cols, total = ws.W, ws.cols, ws.total
    np.random.default_rng(seed).standard_exponential(out=W)
    np.copyto(cols, W.T)
    # The bits of W.sum(axis=1): numpy adds rows shorter than 8 left to right,
    # as these column adds do at a third of the cost, but wider rows pairwise.
    if W.shape[1] < 8:
        np.copyto(total, cols[0])
        for col in cols[1:]:
            total += col
    else:
        W.sum(axis=1, out=total)
    W /= total[:, None]
    cols /= total


def estimate_moments(returns: np.ndarray) -> Moments:
    """Sample mean and (n-1)-denominator covariance from a returns window of
    shape (n_periods, n_assets)."""
    return Moments(*_sample_moments(returns))


def _sample_moments(returns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unvalidated (mu, cov) of ``estimate_moments``."""
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2:
        raise DimensionError("returns window must be 2-D")
    if returns.shape[0] < 2:
        raise InsufficientDataError("need at least 2 return rows")
    mu = returns.mean(axis=0)
    centered = returns - mu
    cov = centered.T @ centered / (returns.shape[0] - 1)
    cov = (cov + cov.T) / 2.0
    return mu, cov


def portfolio_stats(w: Weights, m: Moments, risk_free: float = 0.0) -> FrontierSample:
    arr = w.as_array()
    if arr.shape != m.mu.shape:
        raise DimensionError("weights and moments dimensions differ")
    exp_return = float(arr @ m.mu)
    variance = float(arr @ m.cov @ arr)
    volatility = math.sqrt(max(variance, 0.0))
    sharpe = 0.0 if volatility < VOL_FLOOR else (exp_return - risk_free) / volatility
    return FrontierSample(weights=w, exp_return=exp_return, volatility=volatility, sharpe=sharpe)


def frontier_samples(
    m: Moments,
    count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
    risk_free: float = 0.0,
    workspace: MonteCarloWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """Vectorized stats for `count` random portfolios.

    Returns (weights (count, n), volatility (count,), rows): the samples and
    their volatilities are computed once, and ``rows`` yields (exp_return,
    sharpe) for each expected-return row of ``m``, scored when it is asked
    for, so one row's arrays can be dropped before the next is scored.  Each
    row's arrays are fresh.

    With a ``workspace`` (of shape ``(count, n)``) the weights, volatilities
    and ``rows`` live in its arrays and hold only until its next use; without
    one they are fresh arrays.
    """
    n = m.mu.shape[-1]
    ws = MonteCarloWorkspace(count, n) if workspace is None else workspace
    if ws.W.shape != (count, n):
        raise DimensionError(f"workspace shape {ws.W.shape} != ({count}, {n})")
    _draw_simplex(ws, seed)
    # einsum("ij,jk,ik->i", W, cov, W) term by term and in its order: the sum
    # over j, then k, of (w_j * cov_jk) * w_k.  Same bits, about 2.5x faster
    # at 50 000 x 5 than einsum itself.
    cols, variance, term = ws.cols, ws.variance, ws.term
    variance.fill(0.0)
    for j in range(n):
        for k in range(n):
            np.multiply(cols[j], m.cov[j, k], out=term)
            term *= cols[k]
            variance += term
    vol = np.sqrt(np.maximum(variance, 0.0, out=variance), out=variance)
    np.less(vol, VOL_FLOOR, out=ws.flat)
    return ws.W, vol, _scored_rows(ws.W, vol, ws.flat, np.atleast_2d(m.mu), risk_free)


def _scored_rows(W, vol, flat, mus, risk_free):
    any_flat = flat.any()
    divisor = np.maximum(vol, VOL_FLOOR) if any_flat else vol
    for mu in mus:
        exp_ret = W @ mu  # one GEMV per row: see the module docstring
        sharpe = np.subtract(exp_ret, risk_free)
        sharpe /= divisor
        if any_flat:
            sharpe[flat] = 0.0
        yield exp_ret, sharpe


def mean_variance_select(
    m: Moments,
    count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
    risk_free: float = 0.0,
    workspace: MonteCarloWorkspace | None = None,
) -> list[FrontierSample]:
    """Sharpe-maximal portfolio among `count` simplex samples, one per
    expected-return row of ``m``; ties break to the lowest sample index.

    Every row is scored on the same samples, drawn in ``workspace`` when one
    is given.  Raises DegenerateMarketError, for all rows at once, when every
    sample has zero volatility.
    """
    ws = MonteCarloWorkspace(count, m.mu.shape[-1]) if workspace is None else workspace
    W, vol, rows = frontier_samples(m, count, seed, risk_free, ws)
    if ws.flat.all():
        raise DegenerateMarketError("all sampled portfolios have zero volatility")
    picks = []
    for exp_ret, sharpe in rows:
        best = int(np.argmax(sharpe))
        picks.append(FrontierSample(
            weights=Weights.from_array(W[best]),
            exp_return=float(exp_ret[best]),
            volatility=float(vol[best]),
            sharpe=float(sharpe[best]),
        ))
        del exp_ret, sharpe  # drop this row's scores before the next is scored
    return picks


# -- allocation strategies --------------------------------------------------

def bah_weights(gross_returns: np.ndarray) -> list[Weights]:
    """Equal weights at t=0, then drifting with prices (never traded)."""
    T, n = gross_returns.shape
    w = np.full(n, 1.0 / n)
    out = [Weights.from_array(w)]
    for t in range(T - 1):
        w = w * gross_returns[t]
        w = w / w.sum()
        out.append(Weights.from_array(w))
    return out


def rebalancing_weights(n_assets: int, n_periods: int) -> list[Weights]:
    """Equal weights restored every period."""
    eq = Weights.equal(n_assets)
    return [eq] * n_periods


def best_stock_weights(gross_returns: np.ndarray) -> list[Weights]:
    """All capital on the best cumulative performer so far; equal weights on
    day 0 (no history), ties to the lowest index."""
    T, n = gross_returns.shape
    out = [Weights.equal(n)]
    cum = np.ones(n)
    for t in range(T - 1):
        cum = cum * gross_returns[t]
        w = np.zeros(n)
        w[int(np.argmax(cum))] = 1.0
        out.append(Weights.from_array(w))
    return out


def predictive_weights(
    predicted_prices: np.ndarray,
    last_closes: np.ndarray,
    trailing_returns: list[np.ndarray],
    count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
    risk_free: float = 0.0,
) -> list[list[Weights]]:
    """Daily mean-variance portfolios from predicted next-day returns, for V
    forecasts at once.

    ``predicted_prices`` is (V, T, n): one forecast per variant.  mu for day
    t = predicted_price / last close - 1; cov from that day's trailing
    simple-return window.  The Monte-Carlo seed advances by day index so runs
    are deterministic.  By design all V variants are scored on day t's one
    set of draws (common random numbers), so their weights differ only
    through their forecasts.  Each variant's row gets its own GEMV, so its
    pick is bit for bit the one it gets alone.  A degenerate day gives every
    variant equal weights.  Returns V lists of T weights.
    """
    if predicted_prices.ndim != 3:
        raise DimensionError("predicted prices must be (variants, days, assets)")
    V, T, n = predicted_prices.shape
    if last_closes.shape != (T, n) or len(trailing_returns) != T:
        raise DimensionError("predictive inputs misaligned")
    out: list[list[Weights]] = [[] for _ in range(V)]
    workspace = MonteCarloWorkspace(count, n)  # see the module docstring
    for t in range(T):
        mu = predicted_prices[:, t] / last_closes[t] - 1.0
        m = Moments(mu=mu, cov=_sample_moments(trailing_returns[t])[1])
        try:
            picks = [s.weights for s in mean_variance_select(
                m, count=count, seed=seed + t, risk_free=risk_free, workspace=workspace)]
        except DegenerateMarketError:
            picks = [Weights.equal(n)] * V
        for weights, w in zip(out, picks):
            weights.append(w)
    return out
