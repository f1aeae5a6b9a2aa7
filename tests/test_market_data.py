import datetime as dt

import numpy as np
import pytest

from sentfolio.errors import (
    AlignmentError,
    ConfigurationError,
    DimensionError,
    ParseError,
    ValidationError,
)
from sentfolio.market_data import (
    FEATURE_NAMES,
    NEUTRAL_SENTIMENT,
    SENTIMENT_INDEX,
    AlignedPanel,
    PriceSeries,
    SplitSpec,
    align_panel,
    load_prices,
    split_chronological,
)

from conftest import make_prices


def write_csv(path, rows, header="date,adj_close,volume"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestLoadPrices:
    def test_basic_parse(self, tmp_path):
        f = tmp_path / "XYZ.csv"
        write_csv(f, ["2001-01-02,10.0,100", "2001-01-03,10.5,90"])
        series = load_prices(f)
        assert series.asset_id == "XYZ"
        assert len(series) == 2
        assert series.adj_close == [10.0, 10.5]

    def test_rows_sorted_by_date(self, tmp_path):
        f = tmp_path / "XYZ.csv"
        write_csv(f, ["2001-01-03,10.5,90", "2001-01-02,10.0,100"])
        series = load_prices(f)
        assert series.dates[0] == dt.date(2001, 1, 2)

    def test_duplicate_date_rejected(self, tmp_path):
        f = tmp_path / "XYZ.csv"
        write_csv(f, ["2001-01-02,10.0,100", "2001-01-02,10.5,90"])
        with pytest.raises(ValidationError):
            load_prices(f)

    def test_negative_price_rejected(self, tmp_path):
        f = tmp_path / "XYZ.csv"
        write_csv(f, ["2001-01-02,-1.0,100"])
        with pytest.raises(ValidationError):
            load_prices(f)

    def test_malformed_row_names_line(self, tmp_path):
        f = tmp_path / "XYZ.csv"
        write_csv(f, ["2001-01-02,10.0,100", "not-a-date,1.0,5"])
        with pytest.raises(ParseError, match=":3"):
            load_prices(f)

    def test_unbalanced_quote_names_first_line(self, tmp_path):
        f = tmp_path / "XYZ.csv"
        write_csv(f, ["2001-01-02,10.0,100", '2001-01-03,"10.5,90', "", "2001-01-04,11.0,80"])
        with pytest.raises(ParseError, match="XYZ.csv:3: quoted field runs on to line 5$"):
            load_prices(f)

    def test_missing_header_column(self, tmp_path):
        f = tmp_path / "XYZ.csv"
        write_csv(f, ["2001-01-02,10.0"], header="date,adj_close")
        with pytest.raises(ParseError):
            load_prices(f)

    @pytest.mark.parametrize("volume", ["nan", "inf", "-1"])
    def test_bad_volume_names_line(self, tmp_path, volume):
        f = tmp_path / "XYZ.csv"
        write_csv(f, ["2001-01-02,10.0,100", f"2001-01-03,10.5,{volume}"])
        with pytest.raises(ValidationError, match=":3"):
            load_prices(f)

    @pytest.mark.parametrize("price,shown", [("inf", "inf"), ("1e400", "inf"),
                                             ("nan", "nan"), ("-inf", "-inf")])
    def test_non_finite_price_names_line(self, tmp_path, price, shown):
        f = tmp_path / "XYZ.csv"
        write_csv(f, ["2001-01-02,10.0,100", f"2001-01-05,{price},90"])
        with pytest.raises(ValidationError, match=f"XYZ.csv:3: non-finite adj_close {shown}$"):
            load_prices(f)

    def test_price_series_rejects_infinite_price(self):
        with pytest.raises(ValidationError, match="non-positive or non-finite adj_close"):
            PriceSeries("A", [dt.date(2020, 1, 1)], [float("inf")], [1.0])

    def test_price_series_rejects_nan_volume(self):
        with pytest.raises(ValidationError):
            PriceSeries("A", [dt.date(2020, 1, 1)], [1.0], [float("nan")])


class TestAlignPanel:
    def test_inner_join(self):
        a = make_prices("A", [1.0, 2.0, 3.0, 4.0, 5.0])
        b = make_prices("B", [1.0, 2.0, 3.0], start=dt.date(2020, 1, 3))
        panel = align_panel([a, b])
        assert panel.n_rows == 3
        assert panel.dates[0] == dt.date(2020, 1, 3)

    def test_single_asset_identity(self):
        a = make_prices("A", [1.0, 2.0, 3.0])
        panel = align_panel([a])
        assert panel.dates == a.dates

    def test_five_assets_width_30(self, five_asset_panel):
        assert five_asset_panel.n_features == 30
        assert five_asset_panel.feature_matrix().shape == (20, 30)

    def test_neutral_sentiment_defaults(self):
        a = make_prices("A", [1.0, 2.0])
        panel = align_panel([a])
        assert list(panel.features["A"]["ratio"]) == [1.0, 1.0]
        assert list(panel.features["A"]["likes"]) == [0.0, 0.0]

    def test_sentiment_joined(self):
        assert [FEATURE_NAMES[i] for i in SENTIMENT_INDEX] == list(NEUTRAL_SENTIMENT)
        a = make_prices("A", [1.0, 2.0])
        panel = align_panel([a])
        panel.values[0, 0, SENTIMENT_INDEX] = [5.0, 0.0, 0.0, 2.5]
        assert panel.features["A"]["likes"][0] == 5.0
        assert panel.features["A"]["ratio"][0] == 2.5
        assert panel.features["A"]["ratio"][1] == 1.0

    def test_feature_matrix_is_asset_major(self):
        a = make_prices("A", [1.0, 2.0], volumes=[10.0, 20.0])
        b = make_prices("B", [3.0, 4.0], volumes=[30.0, 40.0])
        panel = align_panel([a, b])
        panel.features["B"]["likes"][1] = 7.0
        mat = panel.feature_matrix()
        for ai, asset in enumerate(panel.assets):
            for fi, name in enumerate(FEATURE_NAMES):
                np.testing.assert_array_equal(
                    mat[:, ai * len(FEATURE_NAMES) + fi], panel.features[asset][name]
                )
        assert mat[1].tolist() == [2.0, 0.0, 0.0, 0.0, 20.0, 1.0,
                                   4.0, 7.0, 0.0, 0.0, 40.0, 1.0]
        assert [mat[0, i] for i in panel.price_column_indices()] == [1.0, 3.0]

    def test_feature_views_write_through(self, five_asset_panel):
        five_asset_panel.features["A2"]["adj_close"][3:5] = 99.0
        prices = five_asset_panel.price_matrix()
        assert prices[3:5, 2].tolist() == [99.0, 99.0]
        assert (prices[:3, 2] != 99.0).all()

    def test_duplicate_assets_rejected(self):
        a = make_prices("A", [1.0, 2.0])
        with pytest.raises(AlignmentError):
            align_panel([a, a])

    def test_empty_intersection(self):
        a = make_prices("A", [1.0, 2.0])
        b = make_prices("B", [1.0, 2.0], start=dt.date(2021, 6, 1))
        with pytest.raises(AlignmentError):
            align_panel([a, b])


class TestSplit:
    def test_exact_fractions(self, five_asset_panel):
        panel = five_asset_panel.slice(0, 10)
        tr, va, te = split_chronological(panel, SplitSpec(0.7, 0.1, 0.2))
        assert (tr.n_rows, va.n_rows, te.n_rows) == (7, 1, 2)

    def test_empty_test_segment(self, five_asset_panel):
        panel = five_asset_panel.slice(0, 10)
        with pytest.raises(ConfigurationError):
            split_chronological(panel, SplitSpec(0.5, 0.5, 0.0))

    def test_floor_rule_remainder_to_test(self, five_asset_panel):
        rng = np.random.default_rng(0)
        # 23 rows: floor(0.7*23)=16, floor(0.1*23)=2, remainder 5 to test
        from conftest import make_prices as mk
        closes = (100 * np.exp(np.cumsum(rng.normal(0, 0.01, 23)))).tolist()
        panel = align_panel([mk("A", closes)])
        tr, va, te = split_chronological(panel, SplitSpec(0.7, 0.1, 0.2))
        assert (tr.n_rows, va.n_rows, te.n_rows) == (16, 2, 5)

    def test_segments_concatenate_exactly(self, five_asset_panel):
        tr, va, te = split_chronological(five_asset_panel, SplitSpec())
        dates = tr.dates + va.dates + te.dates
        assert dates == five_asset_panel.dates
        assert len(set(dates)) == len(dates)
        rebuilt = np.vstack(
            [tr.feature_matrix(), va.feature_matrix(), te.feature_matrix()]
        )
        np.testing.assert_array_equal(rebuilt, five_asset_panel.feature_matrix())

    def test_bad_fraction_sum(self):
        with pytest.raises(ConfigurationError):
            SplitSpec(0.7, 0.1, 0.3)


class TestPanelShape:
    def test_values_shape_checked(self):
        dates = [dt.date(2020, 1, 1), dt.date(2020, 1, 2)]
        AlignedPanel(dates, ["A"], np.zeros((2, 1, len(FEATURE_NAMES))))
        for shape in [(2, 1, len(FEATURE_NAMES) - 1), (3, 1, len(FEATURE_NAMES)),
                      (2, 2, len(FEATURE_NAMES)), (2, len(FEATURE_NAMES))]:
            with pytest.raises(DimensionError):
                AlignedPanel(dates, ["A"], np.zeros(shape))

