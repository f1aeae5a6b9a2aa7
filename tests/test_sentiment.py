import csv
import datetime as dt
import math
import os
import re
import tracemalloc
from dataclasses import dataclass
from statistics import median
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentfolio.errors import ParseError, ValidationError
from sentfolio.sentiment import (
    BLOCK_ROWS,
    INTENSIFIERS,
    LABELS,
    NEGATIONS,
    Lexicon,
    SentimentTable,
    audit_labels,
    daily_features,
    label_text,
    load_sentiment_csv,
    sentiment_ratio,
    weekly_windows,
)

D0 = dt.date(2020, 3, 2)
HEADER = ["date", "asset", "text", "label", "polarity", "likes", "retweets", "comments"]


def rec(offset, label, polarity, asset="A", likes=0):
    return (offset, label, polarity, asset, likes)


def table(records):
    """A SentimentTable of ``rec`` rows, built directly from columns."""
    assets = tuple(dict.fromkeys(r[3] for r in records))
    n = len(records)
    return SentimentTable(
        assets=assets,
        day=np.array([(D0 + dt.timedelta(days=r[0])).toordinal() for r in records],
                     dtype=np.int64),
        asset=np.array([assets.index(r[3]) for r in records], dtype=np.int64),
        text=[""] * n,
        label=np.array([LABELS.index(r[1]) for r in records], dtype=np.int8),
        polarity=np.array([r[2] for r in records], dtype=np.float64),
        engagement=np.array([[r[4], 0, 0] for r in records], dtype=np.int64).reshape(n, 3),
        line=np.arange(2, n + 2, dtype=np.int64),
    )


def week(records, start=D0):
    """The one weekly row (mean, max, median polarity, ratio) of asset A
    starting at ``start``."""
    (w,) = weekly_windows(table(records), "A", start, start)
    return w


def write_rows(path, rows, header=HEADER):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


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

    @pytest.mark.parametrize("text, expected", [
        ("very " * 1000 + "awful", ("Negative", -1.0)),  # s * s overflows
        ("very " * 2000 + "awful", ("Negative", -1.0)),  # s is -inf
        ("very " * 2000 + "good " + "very " * 2000 + "awful", ("Neutral", 0.0)),  # NaN
    ])
    def test_sum_beyond_float_range(self, lexicon, text, expected):
        assert label_text(text, lexicon) == expected

    def test_label_sign_coherence(self, lexicon, tmp_path):
        texts = ("good", "bad", "not bad", "awful awful", "", "very great")
        labeled = [label_text(text, lexicon) for text in texts]
        path = write_rows(tmp_path / "s.csv", [["2020-03-02", "A", "", label, repr(pol)]
                                               for label, pol in labeled], HEADER[:5])
        loaded = load_sentiment_csv(path)  # would raise on incoherence
        assert [LABELS[c] for c in loaded.label] == [label for label, _ in labeled]


class TestSentimentRatio:
    def test_symmetric_empty(self):
        assert sentiment_ratio(0, 0) == 1.0

    def test_three_to_one(self):
        assert sentiment_ratio(3, 1) == 2.0

    def test_zero_negative_week(self):
        assert sentiment_ratio(29, 0) == 30.0

    def test_arrays_of_counts(self):
        ratios = sentiment_ratio(np.array([0, 3, 29]), np.array([0, 1, 0]))
        assert ratios.tolist() == [1.0, 2.0, 30.0]
        with pytest.raises(ValidationError):
            sentiment_ratio(np.array([1, 2]), np.array([0, -1]))

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_monotonicity(self, p, n):
        assert sentiment_ratio(p + 1, n) > sentiment_ratio(p, n)
        assert sentiment_ratio(p, n + 1) < sentiment_ratio(p, n)


class TestAggregateWeekly:
    def test_empty_window(self):
        assert week([]).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_uniform_positive_window(self):
        mean, _, _, ratio = week([rec(i % 7, "Positive", 0.5) for i in range(30)])
        assert mean == pytest.approx(0.5)
        assert ratio == 31.0

    def test_mixed_polarities(self):
        mean, max_pol, median_pol, _ = week(
            [rec(0, "Positive", 0.2), rec(1, "Negative", -0.4), rec(2, "Positive", 0.6)])
        assert mean == pytest.approx(0.4 / 3)
        assert max_pol == 0.6
        assert median_pol == 0.2

    def test_out_of_window_record(self):
        w = week([rec(7, "Neutral", 0.0), rec(-1, "Positive", 0.5), rec(3, "Negative", -0.5)])
        assert w.tolist() == [-0.5, -0.5, -0.5, 0.5]

    @given(st.permutations(list(range(6))))
    def test_permutation_invariant(self, order):
        pols = [0.2, -0.4, 0.6, 0.0, 0.1, -0.9]
        labels = ["Positive", "Negative", "Positive", "Neutral", "Positive", "Negative"]
        records = [rec(i, labels[i], pols[i]) for i in range(6)]
        assert week([records[i] for i in order]).tolist() == week(records).tolist()


class TestWeeklyWindows:
    def test_matches_brute_force_blocks(self):
        # last_date D0+15 leaves a partial third block D0+14..D0+20
        offsets = [-1, 0, 6, 7, 13, 3, 14, 20, 21, 15, 0]
        labels = ["Positive", "Negative", "Neutral"]
        records = [rec(d, labels[k % 3], (0.1, -0.1, 0.0)[k % 3], likes=k)
                   for k, d in enumerate(offsets)]
        last = D0 + dt.timedelta(days=15)
        got = weekly_windows(table(records), "A", D0, last)
        refs = [reference_record(r) for r in records]
        expected = []
        start = D0
        while start <= last:
            end = start + dt.timedelta(days=6)
            expected.append(reference_aggregate_weekly(
                [r for r in refs if start <= r.date <= end]))
            start = end + dt.timedelta(days=1)
        assert_windows_bits(got, expected)

    def test_signed_zeros_keep_file_order(self):
        # max and median return the first of equal values: -0.0 here
        records = [rec(2, "Neutral", -0.0), rec(0, "Neutral", 0.0), rec(1, "Negative", -0.5)]
        got = weekly_windows(table(records), "A", D0, D0)
        assert_windows_bits(got, [reference_aggregate_weekly(
            [reference_record(r) for r in records])])
        assert math.copysign(1.0, got[0, 1]) == -1.0

    def test_empty_span(self):
        assert weekly_windows(table([rec(0, "Neutral", 0.0)]), "A", D0,
                              D0 - dt.timedelta(days=1)).shape == (0, 4)

    def test_other_assets_and_unknown_asset(self):
        records = [rec(0, "Positive", 0.5), rec(1, "Negative", -0.5, asset="B")]
        assert weekly_windows(table(records), "B", D0, D0).tolist() == [[-0.5, -0.5, -0.5, 0.5]]
        assert weekly_windows(table(records), "Z", D0, D0).tolist() == [[0.0, 0.0, 0.0, 1.0]]


class TestDailyRatio:
    """daily_features rows: likes, retweets and comments totals, then ratio."""

    def test_two_pos_one_neg(self):
        records = [rec(0, "Positive", 0.5), rec(0, "Positive", 0.2), rec(0, "Negative", -0.1)]
        assert daily_features(table(records), "A", [D0])[0, 3] == 1.5

    def test_no_records_default(self):
        assert daily_features(table([]), "A", [D0]).tolist() == [[0.0, 0.0, 0.0, 1.0]]

    def test_all_negative_day(self):
        records = [rec(0, "Negative", -0.5, likes=3) for _ in range(4)]
        likes, _, _, ratio = daily_features(table(records), "A", [D0])[0]
        assert ratio == 0.2
        assert likes == 12.0

    def test_repeated_date_keeps_its_totals(self):
        records = [rec(0, "Positive", 0.5, likes=2), rec(0, "Positive", 0.5, asset="B")]
        days = daily_features(table(records), "A", [D0, D0])
        assert days.tolist() == [[2.0, 0.0, 0.0, 2.0]] * 2


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


GOOD_ROW = ["2020-03-02", "A", "fine", "Positive", "0.5", "1", "2", "3"]


def row_with(**fields):
    return [fields.get(name, value) for name, value in zip(HEADER, GOOD_ROW)]


class TestRowValidation:
    def test_incoherent_label_rejected(self, tmp_path):
        path = write_rows(tmp_path / "s.csv", [row_with(polarity="-0.2")])
        with pytest.raises(ParseError, match=r"s\.csv:2: label Positive inconsistent"):
            load_sentiment_csv(path)

    def test_labels_enumerated(self):
        assert set(LABELS) == {"Positive", "Negative", "Neutral"}

    @pytest.mark.parametrize("bad, message", [
        (["2020-03-02"], "1 fields, expected 8"),
        (GOOD_ROW + ["extra"], "9 fields, expected 8"),
        (row_with(date="2020-13-02"), "month must be in 1..12"),
        (row_with(label="Bullish"), "unknown label 'Bullish'"),
        (row_with(polarity="inf"), "polarity inf outside [-1, 1]"),
        (row_with(polarity="5"), "polarity 5.0 outside [-1, 1]"),
        (row_with(polarity="nan"), "label Positive inconsistent with polarity nan"),
        (row_with(likes="inf"), "count 'inf' is not a finite integer"),
        (row_with(likes="1e400"), "count '1e400' is not a finite integer"),
        (row_with(retweets="2.7"), "count '2.7' is not a finite integer"),
        (row_with(comments="many"), "could not convert string to float: 'many'"),
        (row_with(comments="-4"), "engagement counts must be non-negative"),
        (row_with(likes=str(2**53 + 1)), f"engagement count above {2**53}"),
        (row_with(likes="1e300"), f"engagement count above {2**53}"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, bad, message):
        path = write_rows(tmp_path / "s.csv", [GOOD_ROW, bad, GOOD_ROW])
        with pytest.raises(ParseError) as info:
            load_sentiment_csv(path)
        assert str(info.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("value, count", [("12", 12), ("12.0", 12), ("", 0), (" 7 ", 7)])
    def test_integral_counts_accepted(self, tmp_path, value, count):
        path = write_rows(tmp_path / "s.csv", [row_with(likes=value)])
        assert load_sentiment_csv(path).engagement.tolist() == [[count, 2, 3]]

    def test_line_numbers_count_file_lines(self, tmp_path):
        path = write_rows(tmp_path / "s.csv", [row_with(text="spans\nthree\nlines"),
                                               row_with(date="2020-13-02")])
        with pytest.raises(ParseError, match=r"s\.csv:5: month must be in 1\.\.12"):
            load_sentiment_csv(path)

    def test_first_bad_row_is_named(self, tmp_path):
        # the label check runs after the pass, the date parse during it
        path = write_rows(tmp_path / "s.csv", [GOOD_ROW, row_with(label="Bullish"),
                                               row_with(date="someday")])
        with pytest.raises(ParseError, match=r"s\.csv:3: unknown label"):
            load_sentiment_csv(path)

    def test_unlabeled_row_needs_lexicon(self, tmp_path):
        path = write_rows(tmp_path / "s.csv", [row_with(label="")])
        with pytest.raises(ParseError, match="s.csv:2: unlabeled row and no lexicon"):
            load_sentiment_csv(path)

    def test_header_must_name_date_and_asset(self, tmp_path):
        path = write_rows(tmp_path / "s.csv", [GOOD_ROW], ["day"] + HEADER[1:])
        with pytest.raises(ParseError, match="header must contain date and asset"):
            load_sentiment_csv(path)


# -- reference: the per-record loader, scorer and aggregates -----------------
# The table and its aggregates must match these bit for bit.

_TOKEN_RE = re.compile(r"[a-z0-9']+")


@dataclass
class Record:
    date: dt.date
    asset_id: str
    text: str
    label: str
    polarity: float
    likes: int = 0
    retweets: int = 0
    comments: int = 0


def reference_label_text(text, lexicon):
    total, flip, scale = 0.0, False, 1.0
    for tok in _TOKEN_RE.findall(text.lower()):
        if tok in NEGATIONS:
            flip = True
            continue
        if tok in INTENSIFIERS:
            scale *= INTENSIFIERS[tok]
            continue
        valence = lexicon.valences.get(tok)
        if valence is not None:
            v = valence * scale
            total += -v if flip else v
        flip, scale = False, 1.0
    if math.isnan(total):
        return "Neutral", 0.0
    if math.isinf(total * total):
        polarity = math.copysign(1.0, total)
    else:
        polarity = max(-1.0, min(1.0, total / math.sqrt(total * total + 15.0)))
    if abs(polarity) < 0.05:
        return "Neutral", 0.0
    return ("Positive", polarity) if polarity > 0 else ("Negative", polarity)


def reference_load(path, lexicon):
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            text = row.get("text") or ""
            if row.get("label") and row.get("polarity") not in (None, ""):
                label, polarity = row["label"].strip(), float(row["polarity"])
            else:
                label, polarity = reference_label_text(text, lexicon)
            counts = [int(float(row.get(k) or 0)) for k in ("likes", "retweets", "comments")]
            records.append(Record(dt.date.fromisoformat(row["date"].strip()),
                                  row["asset"].strip(), text, label, polarity, *counts))
    return records


def reference_record(r):
    return Record(D0 + dt.timedelta(days=r[0]), r[3], "", r[1], r[2], r[4])


def reference_aggregate_weekly(records):
    pols = [r.polarity for r in records]
    n_pos = sum(1 for r in records if r.label == "Positive")
    n_neg = sum(1 for r in records if r.label == "Negative")
    return (math.fsum(pols) / len(pols) if pols else 0.0,
            max(pols) if pols else 0.0,
            median(pols) if pols else 0.0,
            (n_pos + 1) / (n_neg + 1))


def reference_weekly_windows(records, first, last):
    n_weeks = max(0, (last - first).days // 7 + 1)
    blocks = [[] for _ in range(n_weeks)]
    for r in records:
        k = (r.date - first).days // 7
        if 0 <= k < n_weeks:
            blocks[k].append(r)
    return [reference_aggregate_weekly(b) for b in blocks]


def reference_daily_features(records, dates):
    out = []
    for d in dates:
        day = [r for r in records if r.date == d]
        n_pos = sum(1 for r in day if r.label == "Positive")
        n_neg = sum(1 for r in day if r.label == "Negative")
        out.append([float(sum(r.likes for r in day)), float(sum(r.retweets for r in day)),
                    float(sum(r.comments for r in day)), (n_pos + 1) / (n_neg + 1)])
    return out


def assert_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def float_rows(rows):
    return np.array(list(rows), dtype=np.float64).reshape(-1, 4)


def assert_windows_bits(windows, expected):
    assert_bits(windows, float_rows(expected))


ORACLE_LEXICON = Lexicon(valences={"good": 0.5, "great": 0.8, "bad": -0.5, "awful": -0.8})
TOKENS = ["good", "great", "bad", "awful", "not", "very", "slightly", "shares",
          "up, again", "down\nhard", '"quoted"', "it's", "GOOD"]
texts = st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join)
labels = st.one_of(
    st.just(("", "")),
    st.just(("Positive", "")),
    st.sampled_from([("Neutral", "0.0"), ("Neutral", "-0.0"), (" Neutral ", "0")]),
    st.floats(0.0, 1.0, exclude_min=True).map(lambda p: ("Positive", repr(p))),
    st.floats(-1.0, 0.0, exclude_max=True).map(lambda p: ("Negative", repr(p))),
)
counts = st.one_of(st.integers(0, 10**12).map(str),
                   st.integers(0, 999).map(lambda n: f"{n}.0"), st.just(""))
rows = st.tuples(st.integers(-10, 40), st.sampled_from(["A", "B", " C "]), texts,
                 labels, counts, counts, counts)


class TestTableOracle:
    """load_sentiment_csv, daily_features and weekly_windows against the
    per-record reference on generated files: labeled and unlabeled rows,
    quoted commas and newlines, several assets, rows outside the panel."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(rows, max_size=40),
           st.lists(st.integers(0, 30), unique=True),
           st.integers(-3, 10), st.integers(-8, 40))
    def test_matches_reference(self, tmp_path_factory, generated, day_offsets,
                               first_offset, span):
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        write_rows(path, [[(D0 + dt.timedelta(days=d)).isoformat(), asset, text,
                           label, pol, likes, retweets, comments]
                          for d, asset, text, (label, pol), likes, retweets, comments
                          in generated])
        loaded = load_sentiment_csv(path, ORACLE_LEXICON)
        refs = reference_load(path, ORACLE_LEXICON)

        assert len(loaded) == len(refs)
        assert loaded.scored.tolist() == [pol == "" for _, _, _, (_, pol), *_ in generated]
        assert_bits(loaded.day, np.array([r.date.toordinal() for r in refs], dtype=np.int64))
        assert [loaded.assets[c] for c in loaded.asset] == [r.asset_id for r in refs]
        assert loaded.text == [r.text for r in refs]
        assert_bits(loaded.label, np.array([LABELS.index(r.label) for r in refs], dtype=np.int8))
        assert_bits(loaded.polarity, np.array([r.polarity for r in refs], dtype=np.float64))
        assert_bits(loaded.engagement, np.array(
            [[r.likes, r.retweets, r.comments] for r in refs], dtype=np.int64).reshape(-1, 3))
        # the fields of labeled.csv
        assert list(loaded.csv_rows()) == [
            (r.date.isoformat(), r.asset_id, r.text, r.label, repr(r.polarity),
             r.likes, r.retweets, r.comments) for r in refs]

        dates = [D0 + dt.timedelta(days=d) for d in sorted(day_offsets)]
        first = D0 + dt.timedelta(days=first_offset)
        last = first + dt.timedelta(days=span)
        for asset in ("A", "B", "C"):
            own = [r for r in refs if r.asset_id == asset]
            assert_bits(daily_features(loaded, asset, dates),
                        float_rows(reference_daily_features(own, dates)))
            assert_windows_bits(weekly_windows(loaded, asset, first, last),
                                reference_weekly_windows(own, first, last))

    @given(st.lists(st.sampled_from(TOKENS + ["extremely", "barely", "no"]), max_size=12))
    def test_label_text_matches_reference(self, tokens):
        text = " ".join(tokens)
        name, pol = label_text(text, ORACLE_LEXICON)
        ref_name, ref_pol = reference_label_text(text, ORACLE_LEXICON)
        assert name == ref_name
        assert_bits(pol, ref_pol)

    @pytest.mark.parametrize("text", ["very " * 2000 + "great", "very " * 2000 + "not awful",
                                      "great " * 10**4, "awful " * 10**4,
                                      "very " * 1000 + "awful",
                                      "very " * 2000 + "good " + "very " * 2000 + "awful"])
    def test_label_text_extremes_match_reference(self, text):
        name, pol = label_text(text, ORACLE_LEXICON)
        ref_name, ref_pol = reference_label_text(text, ORACLE_LEXICON)
        assert name == ref_name
        assert_bits(pol, ref_pol)


def _write_peak(n_rows):
    """tracemalloc's peak while ``csv.writer`` writes the ``csv_rows`` of an
    ``n_rows`` table, built beforehand, to a sink that keeps nothing."""
    rng = np.random.default_rng(0)
    rows = np.arange(n_rows, dtype=np.int64)
    table = SentimentTable(
        assets=("AAA", "BBB", "CCC"),
        day=D0.toordinal() + rows // 50,
        asset=rows % 3,
        text=[f"text {i % 97}" for i in range(n_rows)],
        label=np.zeros(n_rows, dtype=np.int8),
        polarity=rng.uniform(0.1, 1.0, n_rows),
        engagement=rng.integers(0, 10**6, (n_rows, 3)),
        line=rows + 2,
    )
    with open(os.devnull, "w", newline="") as sink:
        writer = csv.writer(sink)
        tracemalloc.start()
        try:
            writer.writerows(table.csv_rows())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestBlocks:
    """csv_rows and the loader's scoring memo walk the table BLOCK_ROWS rows
    at a time."""

    def test_writing_rows_takes_one_blocks_memory(self):
        assert _write_peak(8 * BLOCK_ROWS) < 1.5 * _write_peak(2 * BLOCK_ROWS)

    def test_rows_across_block_edges_match_reference(self, tmp_path):
        texts = ["good day", "not bad", "awful", "", "very great", 'flat, "quoted"']
        n = 2 * BLOCK_ROWS + 3
        # a new day every 7 rows and a cycle of 6 texts both straddle each
        # block edge; every third row is labeled
        rows = [[(D0 + dt.timedelta(days=i // 7)).isoformat(), "AB"[i % 2], texts[i % 6],
                 *(("Positive", "0.25") if i % 3 == 0 else ("", "")), i, 1, ""]
                for i in range(n)]
        path = write_rows(tmp_path / "blocks.csv", rows)
        with mock.patch("sentfolio.sentiment.label_text", wraps=label_text) as scorer:
            loaded = load_sentiment_csv(path, ORACLE_LEXICON)
        refs = reference_load(path, ORACLE_LEXICON)

        assert list(loaded.csv_rows()) == [
            (r.date.isoformat(), r.asset_id, r.text, r.label, repr(r.polarity),
             r.likes, r.retweets, r.comments) for r in refs]
        assert_bits(loaded.label, np.array([LABELS.index(r.label) for r in refs], dtype=np.int8))
        assert_bits(loaded.polarity, np.array([r.polarity for r in refs], dtype=np.float64))
        # each distinct unlabeled text once per block, in file order
        expected = []
        for lo in range(0, n, BLOCK_ROWS):
            expected += dict.fromkeys(r[2] for r in rows[lo:lo + BLOCK_ROWS] if not r[3])
        assert len(expected) == 4 + 4 + 2
        assert [call.args[0] for call in scorer.call_args_list] == expected
        # the rows of a block that repeat a text share one str
        for lo in range(0, n, BLOCK_ROWS):
            block = loaded.text[lo:lo + BLOCK_ROWS]
            assert len({id(t) for t in block}) == len(set(block))
