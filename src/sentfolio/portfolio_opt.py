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

A selection draws and scores its samples in chunks of its workspace's rows,
all from one Generator, so the draws are the ones a single (count, n) array
would get.  Its own workspace has ``min(count, CHUNK_ROWS)`` rows: 8 192 x
(2 * 5 + 3) x 8 B = 0.85 MB at 5 assets, where one 50 000-row workspace
takes 5.2 MB.  A caller that wants every sample's scores, as ``cli
frontier`` does for its cloud, passes one of ``count`` rows.  Each chunk
goes through ``frontier_samples``, the one scoring path: it works in the
given workspace or its own, and each row's scores go into two buffers that
are free once the variances are summed.  The pick is the first maximum over
all chunks, so it is ``np.argmax`` over all samples: the first maximal
Sharpe ratio, or the first NaN.

Chunked scoring gives every sample the bits of one draw of ``count`` rows,
because the GEMV gives a row the bits of its place in a block of 8 rows.
So in a selection's own workspace every chunk but the last is a multiple of
8 rows (a split of 8 191 + 2 rows changes the returns at 8+ assets), and no
chunk is a lone last row: numpy computes a one-row GEMV as a dot product,
which rounds differently.  Where a full chunk would leave one row, it takes
8 rows fewer and the last chunk 9.

One cloud serves every day of a backtest.  ``predictive_weights`` keeps one
workspace of chunk size (arrays allocated afresh each day would be handed
back to the OS by glibc and faulted in again) and one cloud of ``count``
rows, 1.9 MiB at 50 000 x 5.  The first day whose covariance is not all
zeros draws the cloud from ``default_rng(seed)``, chunk by chunk as any
selection draws; later days copy its chunks into the workspace instead of
drawing.  So days, like forecasts, are scored on common random numbers: day
t picks what one selection on its moments and ``seed`` picks, and one day's
selection error is correlated with the next day's.  Both arrays are per
call, not cached at module level: a cache would outlive the backtest and
share mutable arrays between callers.
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
CHUNK_ROWS = 8_192  # rows of a selection's own workspace: see the module docstring


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
    """Arrays of Monte-Carlo selections, reusable from day to day.

    ``W`` holds the (count, n) simplex samples and ``cols`` their (n, count)
    transpose; ``total``, ``variance``, ``term`` and ``flat`` are count-long
    buffers for the row sums, the variances (then volatilities), one product
    term and the zero-volatility mask.  Once the variances are summed,
    ``term`` and ``total`` hold a scored row's expected returns and Sharpe
    ratios.  A use of ``count`` rows overwrites the first ``count`` of each.

    ``cloud`` is None or (rows, n) samples kept from selection to selection,
    and ``cloud_seed`` the seed they hold, None until they are drawn (see
    ``mean_variance_select``).
    """

    __slots__ = ("W", "cols", "total", "variance", "term", "flat", "cloud", "cloud_seed")

    def __init__(self, count: int, n_assets: int):
        if n_assets < 1 or count < 1:
            raise DimensionError("n_assets and count must be >= 1")
        self.W = np.empty((count, n_assets))
        self.cols = np.empty((n_assets, count))
        self.total = np.empty(count)
        self.variance = np.empty(count)
        self.term = np.empty(count)
        self.flat = np.empty(count, dtype=bool)
        self.cloud = None
        self.cloud_seed = None

    def _head(self, count: int) -> tuple[np.ndarray, ...]:
        """Views of the first ``count`` rows: W, cols, total, variance,
        term, flat."""
        return (self.W[:count], self.cols[:, :count], self.total[:count],
                self.variance[:count], self.term[:count], self.flat[:count])


def _draw_simplex(W: np.ndarray, cols: np.ndarray, total: np.ndarray,
                  rng: np.random.Generator) -> None:
    """Fill ``W`` with the next rows of weights uniform on the simplex drawn
    from ``rng`` (i.i.d. unit-exponential draws, each row normalized by its
    sum) and ``cols`` with their transpose; ``total`` is a work buffer."""
    rng.standard_exponential(out=W)
    np.copyto(cols, W.T)
    # The bits of W.sum(axis=1): numpy adds rows shorter than 8 left to right,
    # as these column adds do at a third of the cost, but wider rows pairwise.
    if W.shape[1] < 8:
        np.copyto(total, cols[0])
        for col in cols[1:]:
            total += col
    else:
        W.sum(axis=1, out=total)
    cols /= total
    np.copyto(W, cols.T)  # the same quotients: each entry is divided once


def estimate_moments(returns: np.ndarray) -> Moments:
    """Sample mean and (n-1)-denominator covariance from a returns window of
    shape (n_periods, n_assets); see ``_sample_moments``."""
    return Moments(*_sample_moments(returns))


def _sample_moments(returns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, cov) of ``estimate_moments``, not yet checked as a ``Moments``.
    Raises ValidationError, without a RuntimeWarning, when either is not
    finite: a return of 1e200 is a float, but its square is not."""
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2:
        raise DimensionError("returns window must be 2-D")
    if returns.shape[0] < 2:
        raise InsufficientDataError("need at least 2 return rows")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = returns.mean(axis=0)
        centered = returns - mu
        cov = centered.T @ centered / (returns.shape[0] - 1)
        cov = (cov + cov.T) / 2.0
    if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
        raise ValidationError("the returns give a non-finite mean or covariance")
    return mu, cov


def portfolio_stats(w: Weights, m: Moments) -> FrontierSample:
    arr = w.as_array()
    if arr.shape != m.mu.shape:
        raise DimensionError("weights and moments dimensions differ")
    exp_return = float(arr @ m.mu)
    variance = float(arr @ m.cov @ arr)
    volatility = math.sqrt(max(variance, 0.0))
    sharpe = 0.0 if volatility < VOL_FLOOR else exp_return / volatility
    return FrontierSample(weights=w, exp_return=exp_return, volatility=volatility, sharpe=sharpe)


def frontier_samples(
    m: Moments,
    count: int = DEFAULT_SAMPLE_COUNT,
    seed: int | np.random.Generator | np.ndarray = 0,
    workspace: MonteCarloWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """Vectorized stats for `count` random portfolios.

    Returns (weights (count, n), volatility (count,), rows): the samples and
    their volatilities are computed once, and ``rows`` yields (exp_return,
    sharpe) for each expected-return row of ``m``, scored when it is asked
    for.  A Generator as ``seed`` is drawn on from where it stands, so
    consecutive calls continue one stream; a (count, n) array as ``seed``
    holds samples drawn before, which are copied in and scored as they are.

    The weights, volatilities and scores live in the first ``count`` rows
    of ``workspace`` (of ``count`` rows or more), or of a workspace of
    ``count`` rows built for this call when none is given: each row's
    scores, in its ``term`` and ``total``, hold until the next row is
    scored, the rest until the workspace's next use.
    """
    n = m.mu.shape[-1]
    ws = MonteCarloWorkspace(count, n) if workspace is None else workspace
    if ws.W.shape[1] != n or ws.W.shape[0] < count:
        raise DimensionError(f"workspace shape {ws.W.shape} holds no ({count}, {n})")
    W, cols, total, variance, term, flat = ws._head(count)
    if isinstance(seed, np.ndarray):
        np.copyto(W, seed)
        np.copyto(cols, W.T)
    else:
        _draw_simplex(W, cols, total, np.random.default_rng(seed))
    # einsum("ij,jk,ik->i", W, cov, W) term by term and in its order: the sum
    # over j, then k, of (w_j * cov_jk) * w_k.  Same bits, about 2.5x faster
    # at 50 000 x 5 than einsum itself.
    variance.fill(0.0)
    for j in range(n):
        for k in range(n):
            np.multiply(cols[j], m.cov[j, k], out=term)
            term *= cols[k]
            variance += term
    vol = np.sqrt(np.maximum(variance, 0.0, out=variance), out=variance)
    np.less(vol, VOL_FLOOR, out=flat)
    return W, vol, _scored_rows(W, vol, flat, np.atleast_2d(m.mu), term, total)


def _scored_rows(W, vol, flat, mus, exp_ret, sharpe):
    """(exp_return, sharpe) per row of ``mus``, each written into the
    buffers ``exp_ret`` and ``sharpe``."""
    any_flat = flat.any()
    divisor = np.maximum(vol, VOL_FLOOR) if any_flat else vol
    for mu in mus:
        np.matmul(W, mu, out=exp_ret)  # one GEMV per row: see the module docstring
        np.divide(exp_ret, divisor, out=sharpe)
        if any_flat:
            sharpe[flat] = 0.0
        yield exp_ret, sharpe


def mean_variance_select(
    m: Moments,
    count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
    workspace: MonteCarloWorkspace | None = None,
) -> list[FrontierSample]:
    """Sharpe-maximal portfolio among `count` simplex samples, one per
    expected-return row of ``m``; ties break to the lowest sample index, and
    a NaN Sharpe ratio is picked first, as ``np.argmax`` picks.

    Every row is scored on the same samples, drawn in chunks of the rows of
    ``workspace``, or of its own of ``min(count, CHUNK_ROWS)`` rows.  With
    one of ``count`` rows there is one chunk, whose scores stay in it (see
    ``frontier_samples``).  A workspace's cloud of ``count`` rows keeps the
    samples drawn; once it holds ``seed``'s, they are scored without a draw.
    Raises DegenerateMarketError, for all rows at once, when every sample
    has zero volatility; on a covariance of zeros it raises before drawing,
    since every variance is then 0.
    """
    if not m.cov.any():
        raise DegenerateMarketError("all sampled portfolios have zero volatility")
    n = m.mu.shape[-1]
    ws = MonteCarloWorkspace(min(count, CHUNK_ROWS), n) if workspace is None else workspace
    chunk = len(ws.W)
    cloud = ws.cloud
    if cloud is not None and cloud.shape != (count, n):
        raise DimensionError(f"cloud shape {cloud.shape} is not ({count}, {n})")
    drawn = cloud is not None and ws.cloud_seed == seed
    rng = None if drawn else np.random.default_rng(seed)
    best = [None] * len(np.atleast_2d(m.mu))  # per row: (sharpe, exp_return, vol, weights)
    all_flat = True
    lo = 0
    while lo < count:
        rows = min(chunk, count - lo)
        if count - lo - rows == 1 and rows > 8:
            rows -= 8  # no lone last row: see the module docstring
        W, vol, scored = frontier_samples(m, rows, cloud[lo:lo + rows] if drawn else rng, ws)
        if cloud is not None and not drawn:
            cloud[lo:lo + rows] = W
        lo += rows
        all_flat = all_flat and bool(ws.flat[:rows].all())
        for v, (exp_ret, sharpe) in enumerate(scored):
            i = int(np.argmax(sharpe))
            kept = best[v]
            # the first maximum over all chunks, or the first NaN
            if kept is None or (not math.isnan(kept[0])
                                and (sharpe[i] > kept[0] or math.isnan(sharpe[i]))):
                best[v] = (float(sharpe[i]), float(exp_ret[i]), float(vol[i]), W[i].copy())
    if cloud is not None:
        ws.cloud_seed = seed
    if all_flat:
        raise DegenerateMarketError("all sampled portfolios have zero volatility")
    return [FrontierSample(Weights.from_array(w), exp_return, volatility, sharpe)
            for sharpe, exp_return, volatility, w in best]


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


def rebalancing_weights(gross_returns: np.ndarray) -> list[Weights]:
    """Equal weights restored every period."""
    T, n = gross_returns.shape
    return [Weights.equal(n)] * T


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
) -> tuple[list[list[Weights]], int]:
    """Daily mean-variance portfolios from predicted next-day returns, for V
    forecasts at once.

    ``predicted_prices`` is (V, T, n): one forecast per variant.  mu for day
    t = predicted_price / last close - 1; cov from that day's trailing
    simple-return window, refused with a ValidationError when it is not
    finite.  By design every day and all V variants are scored on one cloud
    of ``count`` samples drawn from ``seed`` (common random numbers; see
    the module docstring), so the weights differ only through the moments.
    Each variant's row gets its own GEMV, so its pick is bit for bit the one
    it gets alone.  A degenerate day gives every variant equal weights.
    Returns V lists of T weights and the number of degenerate days.
    """
    if predicted_prices.ndim != 3:
        raise DimensionError("predicted prices must be (variants, days, assets)")
    V, T, n = predicted_prices.shape
    if last_closes.shape != (T, n) or len(trailing_returns) != T:
        raise DimensionError("predictive inputs misaligned")
    out: list[list[Weights]] = [[] for _ in range(V)]
    workspace = MonteCarloWorkspace(min(count, CHUNK_ROWS), n)  # see the module docstring
    workspace.cloud = np.empty((count, n))
    equal_days = 0
    for t in range(T):
        mu = predicted_prices[:, t] / last_closes[t] - 1.0
        m = Moments(mu=mu, cov=_sample_moments(trailing_returns[t])[1])
        try:
            picks = [s.weights for s in mean_variance_select(
                m, count=count, seed=seed, workspace=workspace)]
        except DegenerateMarketError:
            picks = [Weights.equal(n)] * V
            equal_days += 1
        for weights, w in zip(out, picks):
            weights.append(w)
    return out, equal_days
