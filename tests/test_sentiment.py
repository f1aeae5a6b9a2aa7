import datetime as dt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sentfolio.errors import ValidationError
from sentfolio.sentiment import (
    LABELS,
    Lexicon,
    SentimentRecord,
    aggregate_weekly,
    audit_labels,
    daily_features,
    label_text,
    sentiment_ratio,
    weekly_windows,
)

D0 = dt.date(2020, 3, 2)


def rec(offset, label, polarity, asset="A", **kw):
    return SentimentRecord(date=D0 + dt.timedelta(days=offset), asset_id=asset,
                           text="", label=label, polarity=polarity, **kw)


class TestLabelText:
    def test_single_positive_token(self, lexicon):
        label, pol = label_text("good", lexicon)
        assert label == "Positive" and pol > 0

    def test_negation_flips(self, lexicon):
        label, pol = label_text("not good", lexicon)
        assert label == "Negative" and pol < 0

    def test_empty_text_neutral(self, lexicon):
        assert label_text("", lexicon) == ("Neutral", 0.0)

    def test_unknown_tokens_ignored(self, lexicon):
        assert label_text("the market closed flat", lexicon) == ("Neutral", 0.0)

    def test_intensifier_scales(self, lexicon):
        _, plain = label_text("good", lexicon)
        _, strong = label_text("very good", lexicon)
        assert strong > plain

    def test_polarity_bounded(self, lexicon):
        _, pol = label_text("great " * 100, lexicon)
        assert -1.0 <= pol <= 1.0

    def test_label_sign_coherence(self, lexicon):
        for text in ("good", "bad", "not bad", "awful awful", "", "very great"):
            label, pol = label_text(text, lexicon)
            record = rec(0, label, pol)  # would raise on incoherence
            assert record.label == label


class TestSentimentRatio:
    def test_symmetric_empty(self):
        assert sentiment_ratio(0, 0) == 1.0

    def test_three_to_one(self):
        assert sentiment_ratio(3, 1) == 2.0

    def test_zero_negative_week(self):
        assert sentiment_ratio(29, 0) == 30.0

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_monotonicity(self, p, n):
        assert sentiment_ratio(p + 1, n) > sentiment_ratio(p, n)
        assert sentiment_ratio(p, n + 1) < sentiment_ratio(p, n)


class TestAggregateWeekly:
    def test_empty_window(self):
        w = aggregate_weekly([], D0)
        assert w.n_total == 0
        assert (w.mean_pol, w.max_pol, w.median_pol) == (0.0, 0.0, 0.0)
        assert w.ratio == 1.0
        assert not w.sufficient

    def test_uniform_positive_window(self):
        records = [rec(i % 7, "Positive", 0.5) for i in range(30)]
        w = aggregate_weekly(records, D0)
        assert w.n_pos == 30 and w.n_total == 30
        assert w.mean_pol == pytest.approx(0.5)
        assert w.sufficient

    def test_mixed_polarities(self):
        records = [rec(0, "Positive", 0.2), rec(1, "Negative", -0.4), rec(2, "Positive", 0.6)]
        w = aggregate_weekly(records, D0)
        assert w.mean_pol == pytest.approx(0.4 / 3)
        assert w.max_pol == 0.6
        assert w.median_pol == 0.2

    def test_out_of_window_record(self):
        with pytest.raises(ValidationError):
            aggregate_weekly([rec(7, "Neutral", 0.0)], D0)

    def test_count_partition(self):
        records = [rec(0, "Positive", 0.3), rec(1, "Negative", -0.1), rec(2, "Neutral", 0.0)]
        w = aggregate_weekly(records, D0)
        assert w.n_total == w.n_pos + w.n_neg + w.n_neu

    @given(st.permutations(list(range(6))))
    def test_permutation_invariant(self, order):
        pols = [0.2, -0.4, 0.6, 0.0, 0.1, -0.9]
        labels = ["Positive", "Negative", "Positive", "Neutral", "Positive", "Negative"]
        records = [rec(i, labels[i], pols[i]) for i in range(6)]
        base = aggregate_weekly(records, D0)
        shuffled = aggregate_weekly([records[i] for i in order], D0)
        assert shuffled == base


class TestWeeklyWindows:
    def test_matches_brute_force_blocks(self):
        # last_date D0+15 leaves a partial third block D0+14..D0+20
        offsets = [-1, 0, 6, 7, 13, 3, 14, 20, 21, 15, 0]
        labels = ["Positive", "Negative", "Neutral"]
        records = [rec(d, labels[k % 3], (0.1, -0.1, 0.0)[k % 3], likes=k)
                   for k, d in enumerate(offsets)]
        last = D0 + dt.timedelta(days=15)
        got = weekly_windows(records, D0, last)
        expected = []
        start = D0
        while start <= last:
            end = start + dt.timedelta(days=6)
            block = [r for r in records if start <= r.date <= end]
            expected.append(aggregate_weekly(block, start))
            start = end + dt.timedelta(days=1)
        assert got == expected
        assert [w.n_total for w in got] == [4, 2, 3]  # -1 and 21 are dropped

    def test_empty_span(self):
        assert weekly_windows([rec(0, "Neutral", 0.0)], D0, D0 - dt.timedelta(days=1)) == []


class TestDailyRatio:
    def test_two_pos_one_neg(self):
        records = [rec(0, "Positive", 0.5), rec(0, "Positive", 0.2), rec(0, "Negative", -0.1)]
        assert daily_features(records, [D0])[D0]["ratio"] == 1.5

    def test_no_records_default(self):
        assert daily_features([], [D0]) == {
            D0: {"likes": 0.0, "retweets": 0.0, "comments": 0.0, "ratio": 1.0}
        }

    def test_all_negative_day(self):
        records = [rec(0, "Negative", -0.5, likes=3) for _ in range(4)]
        day = daily_features(records, [D0])[D0]
        assert day["ratio"] == 0.2
        assert day["likes"] == 12.0


class TestAuditLabels:
    def test_perfect_predictor_identity(self, lexicon):
        sample = [("good", "Positive"), ("bad", "Negative"), ("", "Neutral")]
        matrix, accuracy = audit_labels(sample, lexicon)
        np.testing.assert_allclose(matrix, np.eye(3))
        assert accuracy == 1.0

    def test_constant_neutral_base_rate(self, lexicon):
        # texts with no lexicon hits are all predicted Neutral
        sample = [("zzz", "Positive"), ("zzz", "Negative"), ("zzz", "Neutral")]
        _, accuracy = audit_labels(sample, lexicon)
        assert accuracy == pytest.approx(1 / 3)

    def test_rows_sum_to_one(self, lexicon):
        sample = [("good", "Positive"), ("awful", "Positive"), ("bad", "Negative"),
                  ("", "Neutral"), ("great", "Neutral")]
        matrix, _ = audit_labels(sample, lexicon)
        np.testing.assert_allclose(matrix.sum(axis=1), [1.0, 1.0, 1.0], atol=1e-12)

    def test_empty_row_all_zero(self, lexicon):
        sample = [("good", "Positive")]
        matrix, _ = audit_labels(sample, lexicon)
        assert matrix[1].sum() == 0.0  # no Negative examples


class TestLexicon:
    def test_valence_bounds(self):
        with pytest.raises(ValidationError):
            Lexicon(valences={"x": 2.0})

    def test_from_file(self, tmp_path):
        f = tmp_path / "lex.tsv"
        f.write_text("good\t0.5\nbad\t-0.5\n")
        lex = Lexicon.from_file(f)
        assert lex.valences == {"good": 0.5, "bad": -0.5}


class TestSentimentRecord:
    def test_incoherent_label_rejected(self):
        with pytest.raises(ValidationError):
            SentimentRecord(date=D0, asset_id="A", text="", label="Positive", polarity=-0.2)

    def test_labels_enumerated(self):
        assert set(LABELS) == {"Positive", "Negative", "Neutral"}
