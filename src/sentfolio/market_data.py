"""Daily price ingestion, panel alignment and splitting."""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .csvfile import read_csv
from .errors import (
    AlignmentError,
    ConfigurationError,
    DimensionError,
    InsufficientDataError,
    ParseError,
    ValidationError,
)

# Per-asset feature column order used everywhere downstream.
FEATURE_NAMES = ("adj_close", "likes", "retweets", "comments", "volume", "ratio")
PRICE_INDEX = FEATURE_NAMES.index("adj_close")
# The adj_close columns of AlignedPanel.feature_matrix(): the forecast targets.
PRICE_COLUMNS = slice(PRICE_INDEX, None, len(FEATURE_NAMES))

# The sentiment features and the values of a day without sentiment rows;
# SENTIMENT_INDEX holds their positions in FEATURE_NAMES, in this order.
NEUTRAL_SENTIMENT = {"likes": 0.0, "retweets": 0.0, "comments": 0.0, "ratio": 1.0}
SENTIMENT_INDEX = [FEATURE_NAMES.index(name) for name in NEUTRAL_SENTIMENT]

# Every panel value is finite; a close and a (smoothed) sentiment ratio are
# positive, a volume and an engagement count are not negative.
POSITIVE_FEATURES = np.isin(FEATURE_NAMES, ("adj_close", "ratio"))


def check_values(panel: AlignedPanel, where=lambda t: "") -> None:
    """Refuse a panel holding a value that breaks the rules above, naming
    the value, its asset, column and date after ``where(t)`` for its row t."""
    v = panel.values
    bad = ~np.isfinite(v) | (v < 0) | ((v == 0) & POSITIVE_FEATURES)
    if bad.any():
        t, a, f = np.argwhere(bad)[0].tolist()
        value = float(v[t, a, f])
        what = ("non-finite" if not math.isfinite(value)
                else "non-positive" if POSITIVE_FEATURES[f] else "negative")
        raise ValidationError(f"{where(t)}{what} value {value!r} of "
                              f"{panel.assets[a]}:{FEATURE_NAMES[f]} on {panel.dates[t]}")


@dataclass
class PriceSeries:
    """Daily adjusted-close and volume history for one asset."""

    asset_id: str
    dates: list[dt.date]
    adj_close: list[float]
    volume: list[float]

    def __post_init__(self):
        if not (len(self.dates) == len(self.adj_close) == len(self.volume)):
            raise ValidationError(f"{self.asset_id}: column lengths differ")
        for i in range(1, len(self.dates)):
            if self.dates[i] <= self.dates[i - 1]:
                raise ValidationError(
                    f"{self.asset_id}: dates not strictly increasing at {self.dates[i]}"
                )

    def __len__(self) -> int:
        return len(self.dates)


@dataclass
class SplitSpec:
    """Chronological train/validation/test proportions."""

    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2

    def __post_init__(self):
        for f in (self.train_frac, self.val_frac, self.test_frac):
            if f < 0.0 or f >= 1.0:
                raise ConfigurationError(f"split fraction {f} outside [0,1)")
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-12:
            raise ConfigurationError(f"split fractions sum to {total}, expected 1")


@dataclass
class AlignedPanel:
    """Inner-joined daily panel: prices, volume and sentiment features per asset.

    ``values[t, a, f]`` is feature ``FEATURE_NAMES[f]`` of ``assets[a]`` on
    ``dates[t]``.  With 5 assets the stacked feature width is 30.
    """

    dates: list[dt.date]
    assets: list[str]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (len(self.dates), len(self.assets), len(FEATURE_NAMES))
        if self.values.shape != expected:
            raise DimensionError(f"panel values shape {self.values.shape} != {expected}")
        if len(set(self.assets)) != len(self.assets):
            raise AlignmentError(f"duplicate assets in {self.assets}")

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    @property
    def n_features(self) -> int:
        return len(self.assets) * len(FEATURE_NAMES)

    @property
    def features(self) -> dict[str, dict[str, np.ndarray]]:
        """``features[asset][name]``: a writable view of one column of ``values``."""
        return {
            a: {name: self.values[:, ai, fi] for fi, name in enumerate(FEATURE_NAMES)}
            for ai, a in enumerate(self.assets)
        }

    def feature_matrix(self) -> np.ndarray:
        """Rows = dates, columns = per-asset blocks in FEATURE_NAMES order (a view)."""
        return self.values.reshape(self.n_rows, self.n_features)

    def price_matrix(self) -> np.ndarray:
        """(n_rows, n_assets) adjusted closes (a view)."""
        return self.values[:, :, PRICE_INDEX]

    def slice(self, start: int, stop: int) -> "AlignedPanel":
        """Rows [start, stop), sharing ``values`` with this panel."""
        return AlignedPanel(self.dates[start:stop], list(self.assets), self.values[start:stop])


def load_prices(path: str | Path) -> PriceSeries:
    """Parse one per-asset CSV with columns date, adj_close and volume, read
    by ``csvfile.read_csv``, as the series of the asset the file's stem names.

    Rows are sorted by date.  A malformed field, a non-positive or
    non-finite price or a bad volume is rejected with its file line named;
    a duplicate date is rejected too.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"price file not found: {path}")
    rows: list[tuple[dt.date, float, float]] = []
    with read_csv(path, ("date", "adj_close", "volume")) as (header, records):
        column = {name: i for i, name in enumerate(header)}
        i_date, i_price, i_volume = column["date"], column["adj_close"], column["volume"]
        for line, row in records:
            where = f"{path}:{line}"
            try:
                date = dt.date.fromisoformat(row[i_date].strip())
                price = float(row[i_price])
                volume = float(row[i_volume])
            except ValueError as exc:
                raise ParseError(f"{where}: malformed row ({exc})") from exc
            if not math.isfinite(price):
                raise ValidationError(f"{where}: non-finite adj_close {price}")
            if not price > 0:
                raise ValidationError(f"{where}: non-positive adj_close {price}")
            if not (math.isfinite(volume) and volume >= 0):
                raise ValidationError(f"{where}: non-finite or negative volume {volume}")
            rows.append((date, price, volume))
    rows.sort(key=lambda r: r[0])
    for i in range(1, len(rows)):
        if rows[i][0] == rows[i - 1][0]:
            raise ValidationError(f"{path}: duplicate date {rows[i][0]}")
    return PriceSeries(
        asset_id=path.stem,
        dates=[r[0] for r in rows],
        adj_close=[r[1] for r in rows],
        volume=[r[2] for r in rows],
    )


def align_panel(prices: list[PriceSeries]) -> AlignedPanel:
    """Inner-join price series on shared dates, with the neutral sentiment
    values; a caller with sentiment writes ``values[:, a, SENTIMENT_INDEX]``.
    """
    if not prices:
        raise AlignmentError("no price series supplied")
    for p in prices:
        if len(p) == 0:
            raise AlignmentError(f"{p.asset_id}: empty price series")
    common = set(prices[0].dates)
    for p in prices[1:]:
        common &= set(p.dates)
    if not common:
        raise AlignmentError("no dates shared by all assets")
    dates = sorted(common)
    panel = AlignedPanel(
        dates=dates,
        assets=[p.asset_id for p in prices],
        values=np.empty((len(dates), len(prices), len(FEATURE_NAMES))),
    )
    panel.values[:, :, SENTIMENT_INDEX] = list(NEUTRAL_SENTIMENT.values())
    for p, cols in zip(prices, panel.features.values()):
        index = {d: i for i, d in enumerate(p.dates)}
        rows = [index[d] for d in dates]
        cols["adj_close"][:] = [p.adj_close[i] for i in rows]
        cols["volume"][:] = [p.volume[i] for i in rows]
    return panel


def split_chronological(
    panel: AlignedPanel, spec: SplitSpec
) -> tuple[AlignedPanel, AlignedPanel, AlignedPanel]:
    """Contiguous train -> validation -> test segments.

    Train and validation take floor(frac * N) rows; the remainder goes to test.
    """
    n = panel.n_rows
    if n == 0:
        raise InsufficientDataError("empty panel")
    n_train = int(math.floor(spec.train_frac * n))
    n_val = int(math.floor(spec.val_frac * n))
    n_test = n - n_train - n_val
    if n_train == 0 or n_val == 0 or n_test == 0:
        raise ConfigurationError(
            f"split ({spec.train_frac}, {spec.val_frac}, {spec.test_frac}) "
            f"of {n} rows yields an empty segment ({n_train}, {n_val}, {n_test})"
        )
    return (
        panel.slice(0, n_train),
        panel.slice(n_train, n_train + n_val),
        panel.slice(n_train + n_val, n),
    )
