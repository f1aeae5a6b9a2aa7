"""The synthetic market: its stream-exact integer draw, its pinned panels,
the agreement of its two views and the arguments it refuses."""

import datetime as dt
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import skip_unless_golden_build
from sentfolio.errors import ConfigurationError, ValidationError
from sentfolio.market_data import SENTIMENT_INDEX, align_panel
from sentfolio.synthetic import (
    ENGAGEMENT_BOUNDS, _bounded, make_market, make_panel, write_market_csv,
)


def scalar_draws(rng, bounds):
    return [int(rng.integers(0, b)) for b in bounds]


def assert_same_draws_and_stream(seed, bounds):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _bounded(fast, np.array(bounds, dtype=np.uint64))
    assert got.tolist() == scalar_draws(slow, bounds)
    # the generators stand at the same place: 32-bit words, the buffered
    # half of a 64-bit word and 64-bit draws all come out equal
    assert (fast.integers(0, 2**32 - 1, size=5, dtype=np.uint32, endpoint=True).tolist()
            == slow.integers(0, 2**32 - 1, size=5, dtype=np.uint32, endpoint=True).tolist())
    assert fast.random(3).tolist() == slow.random(3).tolist()


class TestBoundedDraw:
    @pytest.mark.parametrize("seed", range(4))
    def test_market_bounds(self, seed):
        assert_same_draws_and_stream(seed, [99_000] * 50 + list(ENGAGEMENT_BOUNDS) * 200)

    @pytest.mark.parametrize("seed", range(4))
    def test_half_of_the_words_rejected(self, seed):
        # 2**32 % (2**31 + 1) = 2**31 - 1: about every other word is rejected
        assert_same_draws_and_stream(seed, [2**31 + 1, 500, 3, 2**31 + 1, 2**31 + 1, 7] * 40)

    def test_low_word_on_the_threshold_is_kept(self):
        # for a first word u with u + 1 = p * odd, p a power of two, the bound
        # b = 2**32 - 2**32 // p puts the low word of u * b exactly on the
        # threshold 2**32 % b, which accepts it
        seed = next(s for s in range(100) if np.random.default_rng(s).integers(
            0, 2**32 - 1, dtype=np.uint32, endpoint=True) % 2)
        u = int(np.random.default_rng(seed).integers(0, 2**32 - 1, dtype=np.uint32, endpoint=True))
        b = 2**32 - 2**32 // ((u + 1) & -(u + 1))
        assert (u * b) % 2**32 == 2**32 % b
        assert_same_draws_and_stream(seed, [b, 500, b])

    def test_stream_after_an_odd_number_of_words(self):
        rng = np.random.default_rng(9)
        rng.integers(0, 500)
        state = rng.bit_generator.state
        bounds = [2**31 + 1] * 3 + [200]
        fast, slow = np.random.default_rng(0), np.random.default_rng(0)
        fast.bit_generator.state = slow.bit_generator.state = state
        assert _bounded(fast, np.array(bounds, dtype=np.uint64)).tolist() == scalar_draws(slow, bounds)
        assert fast.random(3).tolist() == slow.random(3).tolist()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           bounds=st.lists(st.one_of(st.integers(2, 1000), st.integers(2, 2**32 - 1)),
                           min_size=1, max_size=60))
    def test_any_bounds(self, seed, bounds):
        assert_same_draws_and_stream(seed, bounds)


# SHA-256 over values.tobytes(), the ISO dates and the assets of each panel,
# taken from the per-asset-day draws that the array path replaced, with
# conftest's GOLDEN_NUMPY and GOLDEN_BLAS.
PIN_SEEDS = range(12)
PINNED_PANELS = {
    40: "aa2a34c540a91212d6bbac7c353a0571a6691a56186b29f98da17562ed02fc50",
    120: "cc49f44a9a0f97fd636c18e729ee70a6f656de31698a0ca43beb13bad5b2458b",
    800: "dd55b900ac760fe2664c312b26cc27b5bb28efd2923ad3dc2ff12ac5b751ea0f",
    2000: "d4e2d62be60d717464e320c245880b3f43caf105bf84950e5fa095295098abf1",
}
PINNED_THREE_ASSETS = "4390ffa4b438e8e14dcdc013297afb6d7ee71dcbb843ca542d956588728e270a"
THREE = ("AAA", "BBB", "CCC")


def panels_digest(panels) -> str:
    h = hashlib.sha256()
    for p in panels:
        h.update(p.values.tobytes())
        h.update(",".join(d.isoformat() for d in p.dates).encode())
        h.update(",".join(p.assets).encode())
    return h.hexdigest()


class TestPanel:
    def test_pinned_panels(self):
        skip_unless_golden_build()
        got = {n: panels_digest(make_panel(seed=s, n_days=n) for s in PIN_SEEDS)
               for n in PINNED_PANELS}
        assert got == PINNED_PANELS
        assert panels_digest([make_panel(seed=2, n_days=40, assets=THREE),
                              make_panel(seed=1, n_days=120, assets=THREE)]) == PINNED_THREE_ASSETS

    @pytest.mark.parametrize("kwargs", [
        {"seed": 0, "n_days": 1},
        {"seed": 5, "n_days": 800},
        {"seed": 2, "n_days": 2000},
        {"seed": 2, "n_days": 40, "assets": THREE, "rho": -0.5, "daily_vol": 0.05,
         "start": dt.date(2020, 2, 27)},
    ])
    def test_market_view_aligns_to_the_panel(self, kwargs):
        series, sentiment, z = make_market(**kwargs)
        aligned = align_panel(series)
        for a, asset in enumerate(aligned.assets):
            aligned.values[:, a, SENTIMENT_INDEX] = [list(sentiment[asset][d].values())
                                                     for d in aligned.dates]
        panel = make_panel(**kwargs)
        assert panel.dates == aligned.dates
        assert panel.assets == aligned.assets
        assert panel.values.tobytes() == aligned.values.tobytes()
        assert z.shape == (len(panel.assets), panel.n_rows)

    def test_csv_writer_returns_the_assets(self, tmp_path):
        assets = write_market_csv(tmp_path, seed=3, n_days=5)
        assert sorted(p.stem for p in tmp_path.glob("*.csv")) == sorted(assets + ["sentiment"])


class TestRefusals:
    @pytest.mark.parametrize("make", [make_panel, make_market])
    @pytest.mark.parametrize("argument, value", [
        ("n_days", 0),
        ("n_days", -3),
        ("assets", ()),
        ("assets", ("AAA", "BBB", "AAA")),
        ("rho", 1.0),
        ("rho", -1.0),
        ("rho", 1.5),
        ("rho", math.nan),
        ("rho", math.inf),
        ("daily_vol", 0.0),
        ("daily_vol", -0.02),
        ("daily_vol", math.nan),
        ("daily_vol", math.inf),
    ])
    def test_refused_argument_is_named(self, make, argument, value):
        with pytest.raises(ConfigurationError, match=argument):
            make(**{"n_days": 10, argument: value})

    @pytest.mark.parametrize("argument, value", [("n_days", 0), ("rho", 1.0)])
    def test_csv_writer_refuses_too(self, tmp_path, argument, value):
        with pytest.raises(ConfigurationError, match=argument):
            write_market_csv(tmp_path / "out", **{argument: value})
        assert not (tmp_path / "out").exists()

    def test_overflowing_prices_are_refused(self):
        with pytest.raises(ValidationError, match="non-finite adj_close"):
            make_panel(n_days=50, daily_vol=1e3)
