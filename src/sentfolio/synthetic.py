"""Synthetic sentiment-driven market fixtures.

Real scraped sentiment datasets are unavailable, so demos and acceptance
checks run on a constructed market in which next-day returns carry a tunable
correlation with the previous day's sentiment ratio.  A sentiment-aware
forecaster can exploit the ratio feature; a neutralized one cannot.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from pathlib import Path

import numpy as np

from .market_data import (
    NEUTRAL_SENTIMENT, SENTIMENT_INDEX, AlignedPanel, PriceSeries, align_panel,
)

DEFAULT_ASSETS = ("AAA", "BBB", "CCC", "DDD", "EEE")


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
    rng = np.random.default_rng(seed)
    n = len(assets)
    # weak pull toward the base price keeps log-prices stationary, so the
    # test range stays close to the train range the forecaster scaled on
    kappa = 0.02
    beta = daily_vol * rho / math.sqrt(1.0 - rho * rho)
    z = rng.standard_normal((n, n_days))
    noise = rng.standard_normal((n, n_days)) * daily_vol
    dates = [start + dt.timedelta(days=i) for i in range(n_days)]

    log_prices = np.zeros((n, n_days))
    for t in range(1, n_days):
        pull = -kappa * log_prices[:, t - 1]
        log_prices[:, t] = log_prices[:, t - 1] + pull + beta * z[:, t - 1] + noise[:, t]

    series = []
    sentiment: dict[str, dict[dt.date, dict[str, float]]] = {}
    for a_idx, asset in enumerate(assets):
        p0 = 20.0 * (1 + a_idx)
        prices = p0 * np.exp(log_prices[a_idx])
        volume = rng.integers(1_000, 100_000, size=n_days).astype(float)
        series.append(
            PriceSeries(
                asset_id=asset,
                dates=list(dates),
                adj_close=[float(p) for p in prices],
                volume=[float(v) for v in volume],
            )
        )
        per_day = {}
        for t, d in enumerate(dates):
            per_day[d] = {
                "likes": float(rng.integers(0, 500)),
                "retweets": float(rng.integers(0, 200)),
                "comments": float(rng.integers(0, 100)),
                "ratio": float(np.exp(0.8 * z[a_idx, t])),
            }
        sentiment[asset] = per_day
    return series, sentiment, z


def make_panel(seed: int = 0, n_days: int = 500, rho: float = 0.3, **kwargs) -> AlignedPanel:
    series, sentiment, _ = make_market(seed=seed, n_days=n_days, rho=rho, **kwargs)
    panel = align_panel(series)
    for a, asset in enumerate(panel.assets):
        days = sentiment[asset]
        panel.values[:, a, SENTIMENT_INDEX] = [[days[d][name] for name in NEUTRAL_SENTIMENT]
                                               for d in panel.dates]
    return panel


def write_market_csv(
    out_dir: str | Path, seed: int = 0, n_days: int = 500, rho: float = 0.3
) -> list[str]:
    """Write per-asset price CSVs plus one pre-labeled sentiment CSV.

    Sentiment rows carry pos/neg counts whose smoothed ratio reproduces the
    generator's ratio feature (up to count rounding).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    series, sentiment, z = make_market(seed=seed, n_days=n_days, rho=rho)
    for s in series:
        with open(out_dir / f"{s.asset_id}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "adj_close", "volume"])
            for d, p, v in zip(s.dates, s.adj_close, s.volume):
                writer.writerow([d.isoformat(), f"{p:.6f}", int(v)])
    with open(out_dir / "sentiment.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["date", "asset", "text", "label", "polarity", "likes", "retweets", "comments"]
        )
        for s in series:
            per_day = sentiment[s.asset_id]
            for d in s.dates:
                feats = per_day[d]
                n_neg = 9
                n_pos = max(0, round(feats["ratio"] * (n_neg + 1)) - 1)
                rows = [("Positive", 0.5)] * n_pos + [("Negative", -0.5)] * n_neg
                for i, (label, pol) in enumerate(rows):
                    likes = feats["likes"] if i == 0 else 0
                    rts = feats["retweets"] if i == 0 else 0
                    cms = feats["comments"] if i == 0 else 0
                    writer.writerow(
                        [d.isoformat(), s.asset_id, "", label, pol,
                         int(likes), int(rts), int(cms)]
                    )
    return [s.asset_id for s in series]
