"""Synthetic sentiment-driven market fixtures.

Real scraped sentiment datasets are unavailable, so demos and acceptance
checks run on a constructed market in which next-day returns carry a tunable
correlation with the previous day's sentiment ratio.  A sentiment-aware
forecaster can exploit the ratio feature; a neutralized one cannot.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError
from .market_data import (
    FEATURE_NAMES, NEUTRAL_SENTIMENT, PRICE_INDEX, SENTIMENT_INDEX, AlignedPanel, PriceSeries,
)

DEFAULT_ASSETS = ("AAA", "BBB", "CCC", "DDD", "EEE")
# Exclusive upper bounds of the daily likes, retweets and comments counts.
ENGAGEMENT_BOUNDS = (500, 200, 100)
VOLUME_LOW, VOLUME_HIGH = 1_000, 100_000


def _bounded(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """One draw from [0, b) per entry b of ``bounds``, 2 <= b < 2**32, with
    the values and the stream position of one ``rng.integers(0, b)`` call
    per entry, in order (numpy draws no word for b = 1).

    numpy draws such a bound with Lemire's multiply-shift on one 32-bit word:
    the value is ``(u * b) >> 32``, and a word whose low 32 bits of ``u * b``
    fall below ``2**32 % b`` is rejected, the same slot retrying from the next
    word.  Here all words come from one raw draw; each rejection shifts the
    slots after it by one word and draws one more word at the end.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    out = np.empty(bounds.size, dtype=np.uint64)
    words = rng.integers(0, 2**32 - 1, size=bounds.size, dtype=np.uint32, endpoint=True)
    done = 0
    while True:
        b = bounds[done:]
        m = words.astype(np.uint64) * b
        rejected = np.flatnonzero((m & 0xFFFFFFFF) < 2**32 % b)
        stop = rejected[0] if rejected.size else b.size
        out[done:done + stop] = m[:stop] >> 32
        if not rejected.size:
            return out
        words = np.concatenate([words[stop + 1:], rng.integers(
            0, 2**32 - 1, size=1, dtype=np.uint32, endpoint=True)])
        done += stop


class _Market(NamedTuple):
    assets: list[str]
    dates: list[dt.date]
    prices: np.ndarray  # (n_assets, n_days)
    volume: np.ndarray  # (n_assets, n_days)
    sentiment: np.ndarray  # (n_assets, n_days, 4), NEUTRAL_SENTIMENT order
    z: np.ndarray  # (n_assets, n_days)


def _market(
    seed: int = 0,
    n_days: int = 500,
    assets: tuple[str, ...] = DEFAULT_ASSETS,
    rho: float = 0.3,
    daily_vol: float = 0.02,
    start: dt.date = dt.date(2015, 1, 2),
) -> _Market:
    """The market as arrays; ``make_market`` documents the model."""
    if n_days < 1:
        raise ConfigurationError(f"n_days must be >= 1, got {n_days}")
    if not assets or len(set(assets)) != len(assets):
        raise ConfigurationError(f"assets must be non-empty and distinct, got {assets!r}")
    if not (math.isfinite(rho) and abs(rho) < 1):
        raise ConfigurationError(f"rho must be finite with |rho| < 1, got {rho}")
    if not (math.isfinite(daily_vol) and daily_vol > 0):
        raise ConfigurationError(f"daily_vol must be finite and > 0, got {daily_vol}")
    rng = np.random.default_rng(seed)
    n = len(assets)
    # weak pull toward the base price keeps log-prices stationary, so the
    # test range stays close to the train range the forecaster scaled on
    kappa = 0.02
    beta = daily_vol * rho / math.sqrt(1.0 - rho * rho)
    z = rng.standard_normal((n, n_days))
    noise = rng.standard_normal((n, n_days)) * daily_vol
    dates = [start + dt.timedelta(days=i) for i in range(n_days)]

    # x[t] = x[t-1] - kappa * x[t-1] + beta * z[t-1] + noise[t] from x[0] = 0,
    # in Python floats: the same IEEE operations in the same order as a
    # vector step per day, without numpy's per-call cost
    log_prices = np.array([
        list(itertools.accumulate(zip(bz, nz), lambda x, s: x + -kappa * x + s[0] + s[1],
                                  initial=0.0))
        for bz, nz in zip((beta * z[:, :-1]).tolist(), noise[:, 1:].tolist())
    ])
    with np.errstate(over="ignore"):  # refused below
        prices = (20.0 * np.arange(1, n + 1))[:, None] * np.exp(log_prices)
    bad = ~(np.isfinite(prices) & (prices > 0))
    if bad.any():
        a, t = np.argwhere(bad)[0]
        raise ValidationError(f"{assets[a]}: non-positive or non-finite adj_close on {dates[t]}")

    # per asset, in the order of the scalar draws: n_days volumes, then the
    # likes, retweets and comments of each day
    per_asset = [np.full(n_days, VOLUME_HIGH - VOLUME_LOW), np.tile(ENGAGEMENT_BOUNDS, n_days)]
    bounds = np.tile(np.concatenate(per_asset), n)
    counts = _bounded(rng, bounds).astype(float).reshape(n, 4 * n_days)
    volume = counts[:, :n_days] + VOLUME_LOW
    sentiment = np.empty((n, n_days, len(NEUTRAL_SENTIMENT)))
    sentiment[:, :, :3] = counts[:, n_days:].reshape(n, n_days, 3)
    sentiment[:, :, 3] = np.exp(0.8 * z)
    return _Market(list(assets), dates, prices, volume, sentiment, z)


def make_market(
    seed: int = 0,
    n_days: int = 500,
    assets: tuple[str, ...] = DEFAULT_ASSETS,
    rho: float = 0.3,
    daily_vol: float = 0.02,
    start: dt.date = dt.date(2015, 1, 2),
) -> tuple[list[PriceSeries], dict, np.ndarray]:
    """Build per-asset prices plus daily sentiment features.

    Each asset n carries a latent signal z[n, t]; its next-day simple return is
    beta * z[n, t] + noise with beta chosen so corr(return_{t+1}, z_t) = rho.
    The sentiment ratio feature exposes z as exp(0.8 * z).

    Returns (price series, ``sentiment[asset][date][feature]`` for each
    feature of NEUTRAL_SENTIMENT, z).
    """
    m = _market(seed, n_days, assets, rho, daily_vol, start)
    series = [
        PriceSeries(asset_id=asset, dates=list(m.dates),
                    adj_close=m.prices[a].tolist(), volume=m.volume[a].tolist())
        for a, asset in enumerate(m.assets)
    ]
    sentiment = {
        asset: {d: dict(zip(NEUTRAL_SENTIMENT, row)) for d, row in zip(m.dates, days)}
        for asset, days in zip(m.assets, m.sentiment.tolist())
    }
    return series, sentiment, m.z


def make_panel(seed: int = 0, n_days: int = 500, rho: float = 0.3, **kwargs) -> AlignedPanel:
    """The market of ``make_market`` with the same arguments, as a panel."""
    m = _market(seed=seed, n_days=n_days, rho=rho, **kwargs)
    values = np.empty((n_days, len(m.prices), len(FEATURE_NAMES)))
    values[:, :, PRICE_INDEX] = m.prices.T
    values[:, :, FEATURE_NAMES.index("volume")] = m.volume.T
    values[:, :, SENTIMENT_INDEX] = m.sentiment.transpose(1, 0, 2)
    return AlignedPanel(m.dates, m.assets, values)


def write_market_csv(
    out_dir: str | Path, seed: int = 0, n_days: int = 500, rho: float = 0.3
) -> list[str]:
    """Write per-asset price CSVs plus one pre-labeled sentiment CSV.

    Sentiment rows carry pos/neg counts whose smoothed ratio reproduces the
    generator's ratio feature (up to count rounding).
    """
    m = _market(seed=seed, n_days=n_days, rho=rho)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    days = [d.isoformat() for d in m.dates]
    for asset, prices, volume in zip(m.assets, m.prices.tolist(), m.volume.tolist()):
        with open(out_dir / f"{asset}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "adj_close", "volume"])
            for d, p, v in zip(days, prices, volume):
                writer.writerow([d, f"{p:.6f}", int(v)])
    with open(out_dir / "sentiment.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["date", "asset", "text", "label", "polarity", "likes", "retweets", "comments"]
        )
        for asset, per_day in zip(m.assets, m.sentiment.tolist()):
            for d, (likes, rts, cms, ratio) in zip(days, per_day):
                n_neg = 9
                n_pos = max(0, round(ratio * (n_neg + 1)) - 1)
                rows = [("Positive", 0.5)] * n_pos + [("Negative", -0.5)] * n_neg
                for i, (label, pol) in enumerate(rows):
                    engagement = [int(likes), int(rts), int(cms)] if i == 0 else [0, 0, 0]
                    writer.writerow([d, asset, "", label, pol, *engagement])
    return m.assets
