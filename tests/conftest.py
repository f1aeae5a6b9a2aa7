import datetime as dt

import numpy as np
import pytest

from sentfolio.market_data import PriceSeries, align_panel
from sentfolio.sentiment import Lexicon


# The numpy and BLAS with which the golden SHA-256 pins were taken; other
# builds may round differently.  A change that alters a pinned output by
# design updates the pin and says so in CHANGES.md.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_BLAS = "scipy-openblas 0.3.31.188.0"


def _blas() -> str:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def skip_unless_golden_build() -> None:
    """Skip the calling test unless numpy and BLAS are the pinned ones."""
    if (np.__version__, _blas()) != (GOLDEN_NUMPY, GOLDEN_BLAS):
        pytest.skip(f"digests pinned with numpy {GOLDEN_NUMPY} and {GOLDEN_BLAS}; "
                    f"this is numpy {np.__version__} with {_blas()}")


def make_prices(asset_id, closes, start=dt.date(2020, 1, 1), volumes=None):
    dates = [start + dt.timedelta(days=i) for i in range(len(closes))]
    volumes = volumes or [100.0] * len(closes)
    return PriceSeries(asset_id=asset_id, dates=dates,
                       adj_close=list(closes), volume=list(volumes))


@pytest.fixture
def lexicon():
    return Lexicon(valences={"good": 0.5, "great": 0.8, "bad": -0.5, "awful": -0.8})


@pytest.fixture
def five_asset_panel():
    """5 assets x 20 shared dates, deterministic prices, no sentiment."""
    rng = np.random.default_rng(7)
    series = []
    for i in range(5):
        closes = (10.0 * (i + 1) * np.exp(np.cumsum(rng.normal(0, 0.01, 20)))).tolist()
        series.append(make_prices(f"A{i}", closes))
    return align_panel(series)
