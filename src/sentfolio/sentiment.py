"""Lexicon-rule polarity scoring and daily/weekly sentiment aggregation.

``load_sentiment_csv`` reads the sentiment file into one ``SentimentTable``
of columns, row i being line ``line[i]`` of the file:

- ``day``: int64 day ordinals (``datetime.date.toordinal``);
- ``asset``: int64 codes into the tuple ``assets`` of stripped asset names,
  numbered in order of first appearance;
- ``text``: a list of str; the rows of one block (below) that repeat a text
  share one ``str`` object;
- ``label``: int8 codes into ``LABELS`` (0 Positive, 1 Negative, 2 Neutral);
- ``polarity``: float64, in [-1, 1] with the sign its label implies;
- ``engagement``: int64 ``[N, 3]``, the likes, retweets and comments counts,
  each in [0, MAX_COUNT];
- ``scored``: bool, true for a row the file leaves unlabeled, whose label
  and polarity come from the lexicon (None in a table built from columns).

The table is read, written and scored in blocks of ``BLOCK_ROWS`` file rows,
so that the transient memory of each is one block's, whatever the file's size:

- the loader keeps one dict of each block's texts while it reads the block
  and stores the dict's ``str`` in place of the reader's, so a file that
  repeats its texts (retweets, templated alerts) holds each once per block,
  and one that never repeats them holds the same strings as before;
- ``SentimentTable.csv_rows`` is a generator that builds the ISO dates, the
  asset and label names, the polarity reprs and the counts of one block at
  a time, for ``csv.writer.writerows`` to consume;
- the loader scores the unlabeled rows block by block with a memo of
  ``label_text`` results, cleared at each block, so each distinct text is
  scored once per block (``label_text`` depends only on the text and the
  lexicon, so every label and polarity keeps its bits).  A file that
  repeats its texts scores far fewer than one text per row, and one that
  never repeats keeps the memo at one block's entries.

``daily_features`` and ``weekly_windows`` aggregate one asset's rows into
float arrays with numpy and give results bit-identical to the per-row
formulas: integer engagement sums converted to float once, the ``math.fsum``
mean, ``max`` and ``statistics.median`` of each week's polarities in file
order, and ``sentiment_ratio`` of the label counts.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from pathlib import Path
from statistics import median

import numpy as np

from .csvfile import read_csv
from .errors import ParseError, ValidationError, undecodable

POSITIVE = "Positive"
NEGATIVE = "Negative"
NEUTRAL = "Neutral"
LABELS = (POSITIVE, NEGATIVE, NEUTRAL)
_LABEL_CODES = {name: code for code, name in enumerate(LABELS)}
# Code of a label outside LABELS while the file is read; validation refuses it.
_UNKNOWN = len(LABELS)
ENGAGEMENT = ("likes", "retweets", "comments")
COLUMNS = ("date", "asset", "text", "label", "polarity", *ENGAGEMENT)
# Largest engagement count: every integer up to it is exact as a float.
MAX_COUNT = 2**53
# Rows per block of csv_rows and of the loader's shared texts and scoring memo.
BLOCK_ROWS = 8192

# |polarity| below this is treated as no signal.
NEUTRAL_BAND = 0.05
# Squash constant: polarity = s / sqrt(s^2 + NORM) for raw valence sum s.
NORM = 15.0

_TOKEN_RE = re.compile(r"[a-z0-9']+")

NEGATIONS = frozenset(
    {"not", "no", "never", "neither", "nor", "n't", "cannot", "without", "hardly"}
)
INTENSIFIERS = {
    "very": 1.5,
    "extremely": 1.8,
    "really": 1.4,
    "slightly": 0.6,
    "somewhat": 0.7,
    "barely": 0.5,
}


@dataclass(frozen=True)
class Lexicon:
    """Token valences; immutable.  The negation and intensifier rules are
    NEGATIONS and INTENSIFIERS."""

    valences: dict[str, float]

    def __post_init__(self):
        for tok, v in self.valences.items():
            if not -1.0 <= v <= 1.0:
                raise ValidationError(f"lexicon valence out of [-1,1] for {tok!r}: {v}")

    @classmethod
    def from_file(cls, path: str | Path) -> "Lexicon":
        """Load ``token<TAB>valence`` lines; blank lines, # comments and a
        leading UTF-8 byte order mark skipped.

        A ParseError names the line of a token that ``tokenize`` never yields
        (so its valence would never count), a repeated token, or a valence
        outside [-1, 1]; a file without entries is refused too."""
        valences: dict[str, float] = {}
        first_line: dict[str, int] = {}
        try:
            with open(path, encoding="utf-8-sig") as fh:
                lines = list(fh)
        except UnicodeDecodeError as exc:
            raise undecodable(path) from exc
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected token<TAB>valence")
            token = parts[0].lower()
            if not _TOKEN_RE.fullmatch(token):
                raise ParseError(f"{path}:{lineno}: {parts[0]!r} is not a token "
                                 "(a run of a-z, 0-9 and ')")
            if token in first_line:
                raise ParseError(f"{path}:{lineno}: token {token!r} repeats line "
                                 f"{first_line[token]}")
            try:
                valence = float(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad valence {parts[1]!r}") from exc
            if not -1.0 <= valence <= 1.0:
                raise ParseError(f"{path}:{lineno}: valence {parts[1]!r} outside [-1, 1]")
            valences[token] = valence
            first_line[token] = lineno
        if not valences:
            raise ParseError(f"{path}: empty lexicon (no token<TAB>valence line)")
        return cls(valences=valences)


@dataclass(eq=False)
class SentimentTable:
    """Sentiment rows as columns; see the module docstring."""

    assets: tuple[str, ...]
    day: np.ndarray
    asset: np.ndarray
    text: list[str]
    label: np.ndarray
    polarity: np.ndarray
    engagement: np.ndarray
    line: np.ndarray
    scored: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.text)

    def rows_of(self, asset: str) -> np.ndarray:
        """Indices of ``asset``'s rows, in file order."""
        if asset not in self.assets:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(self.asset == self.assets.index(asset))

    def csv_rows(self) -> Iterator[tuple]:
        """The rows as COLUMNS fields: ISO dates, names for the codes, and
        the ``repr`` of each polarity, built BLOCK_ROWS rows at a time."""
        assets = np.array(self.assets, dtype=object)
        labels = np.array(LABELS, dtype=object)
        for lo in range(0, len(self), BLOCK_ROWS):
            block = slice(lo, lo + BLOCK_ROWS)
            days, day_index = np.unique(self.day[block], return_inverse=True)
            iso = [dt.date.fromordinal(d).isoformat() for d in days.tolist()]
            yield from zip(np.array(iso, dtype=object)[day_index],
                           assets[self.asset[block]],
                           self.text[block],
                           labels[self.label[block]],
                           map(repr, self.polarity[block].tolist()),
                           *self.engagement[block].T.tolist())


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def score_text(text: str, lexicon: Lexicon) -> float:
    """Raw valence sum with negation flips and intensifier scaling."""
    valences = lexicon.valences
    total = 0.0
    flip = False
    scale = 1.0
    for tok in tokenize(text):
        if tok in NEGATIONS:
            flip = True
            continue
        if tok in INTENSIFIERS:
            scale *= INTENSIFIERS[tok]
            continue
        valence = valences.get(tok)
        if valence is not None:
            v = valence * scale
            if flip:
                v = -v
            total += v
        # modifiers apply only to the next scored token
        flip = False
        scale = 1.0
    return total


def label_text(text: str, lexicon: Lexicon) -> tuple[str, float]:
    """Score a text and assign its 3-class label.

    The raw valence sum s is squashed to s/sqrt(s^2 + 15) so polarity lies in
    [-1, 1]; scores inside the +-0.05 dead zone become Neutral (polarity 0 so
    the label/sign invariant holds).  A sum too large to square scores +-1
    by its sign, and a NaN sum (of +inf and -inf terms) scores Neutral.
    """
    if not lexicon.valences:
        raise ValidationError("empty lexicon")
    s = score_text(text, lexicon)
    if -1e150 < s < 1e150:  # s * s is finite
        polarity = s / math.sqrt(s * s + NORM)
    elif s != s:  # NaN: a sum of +inf and -inf valences
        return NEUTRAL, 0.0
    else:  # the quotient rounds to +-1 from |s| = 4e8 on
        polarity = 1.0 if s > 0 else -1.0
    # max(-1.0, min(1.0, polarity)) and abs(polarity) < NEUTRAL_BAND, without
    # the builtin calls
    polarity = polarity if polarity < 1.0 else 1.0
    polarity = polarity if polarity > -1.0 else -1.0
    if -NEUTRAL_BAND < polarity < NEUTRAL_BAND:
        return NEUTRAL, 0.0
    return (POSITIVE, polarity) if polarity > 0 else (NEGATIVE, polarity)


def sentiment_ratio(n_pos, n_neg):
    """Positive/negative count ratio with Laplace (+1/+1) smoothing, of two
    counts or of two arrays of counts; the quotient of integers is correctly
    rounded either way."""
    if np.any(np.less(n_pos, 0)) or np.any(np.less(n_neg, 0)):
        raise ValidationError("counts must be non-negative")
    return (n_pos + 1) / (n_neg + 1)


def weekly_windows(
    table: SentimentTable, asset: str, first_date: dt.date, last_date: dt.date
) -> np.ndarray:
    """The mean, max and median polarity and the ratio of ``asset``'s rows
    in non-overlapping 7-day blocks anchored at first_date, one row per
    block; the last block starts on or before last_date and keeps its full
    seven days.  Rows outside the blocks are dropped, and a block without
    rows gets 0, 0, 0, 1."""
    n_weeks = max(0, (last_date - first_date).days // 7 + 1)
    rows = table.rows_of(asset)
    week = (table.day[rows] - first_date.toordinal()) // 7
    keep = (week >= 0) & (week < n_weeks)
    # a stable sort keeps each block's polarities in file order
    order = np.argsort(week[keep], kind="stable")
    rows, week = rows[keep][order], week[keep][order]
    counts = np.bincount(3 * week + table.label[rows], minlength=3 * n_weeks)
    counts = counts.reshape(n_weeks, 3)
    bounds = np.searchsorted(week, np.arange(n_weeks + 1)).tolist()
    pols = table.polarity[rows].tolist()
    out = np.zeros((n_weeks, 4))
    for k in range(n_weeks):
        block = pols[bounds[k]:bounds[k + 1]]
        if block:
            out[k, :3] = math.fsum(block) / len(block), max(block), median(block)
    out[:, 3] = sentiment_ratio(counts[:, 0], counts[:, 1])
    return out


def daily_features(table: SentimentTable, asset: str, dates: list[dt.date]) -> np.ndarray:
    """The likes, retweets and comments totals and the ratio of ``asset``'s
    rows on each of ``dates``, one row per date in the column order of
    ``market_data.NEUTRAL_SENTIMENT``; a date without rows gets 0, 0, 0, 1."""
    days, inverse = np.unique(np.array([d.toordinal() for d in dates], dtype=np.int64),
                              return_inverse=True)
    rows = table.rows_of(asset)
    rows = rows[np.isin(table.day[rows], days)]
    pos = np.searchsorted(days, table.day[rows])
    counts = np.bincount(3 * pos + table.label[rows], minlength=3 * days.size)
    counts = counts.reshape(days.size, 3)
    # integer sums (np.bincount would add in float64), converted to float once
    totals = np.zeros((days.size, 3), dtype=np.int64)
    np.add.at(totals, pos, table.engagement[rows])
    out = np.empty((days.size, 4))
    out[:, :3] = totals
    out[:, 3] = sentiment_ratio(counts[:, 0], counts[:, 1])
    return out[inverse]


def audit_labels(
    sample: list[tuple[str, str]], lexicon: Lexicon
) -> tuple[np.ndarray, float]:
    """Row-normalized 3x3 confusion matrix (rows = true label) and accuracy."""
    if not sample:
        raise ValidationError("empty audit sample")
    index = {lab: i for i, lab in enumerate(LABELS)}
    counts = np.zeros((3, 3), dtype=float)
    correct = 0
    for text, true_label in sample:
        if true_label not in index:
            raise ValidationError(f"unknown true label {true_label!r}")
        pred, _ = label_text(text, lexicon)
        counts[index[true_label], index[pred]] += 1
        if pred == true_label:
            correct += 1
    matrix = counts.copy()
    for i in range(3):
        row_sum = counts[i].sum()
        if row_sum > 0:
            matrix[i] = counts[i] / row_sum
    return matrix, correct / len(sample)


def _count(field: str) -> int:
    """An engagement count: empty reads as 0, otherwise a finite integral
    number such as ``12`` or ``12.0``."""
    if not field:
        return 0
    try:
        return int(field)
    except ValueError:
        value = float(field)
        if not value.is_integer():
            raise ValueError(f"count {field!r} is not a finite integer") from None
        return int(value)


def _coherent(label: np.ndarray, polarity: np.ndarray) -> np.ndarray:
    """True where ``polarity`` has the sign of its label code: above 0 for
    Positive, below 0 for Negative, exactly 0 otherwise."""
    return np.where(label == 0, polarity > 0, np.where(label == 1, polarity < 0, polarity == 0))


def _validate(path: Path, table: SentimentTable, unknown_label: str | None) -> None:
    """Raise a ParseError naming the first row with an unknown label, a
    label that disagrees with the sign of its polarity, a polarity outside
    [-1, 1], or a count that is negative or above MAX_COUNT."""
    label, pol, counts = table.label, table.polarity, table.engagement
    unknown = label == _UNKNOWN
    incoherent = ~_coherent(label, pol) & ~unknown
    out_of_range = ~(np.abs(pol) <= 1.0)
    negative = (counts < 0).any(axis=1)
    too_large = (counts > MAX_COUNT).any(axis=1)
    bad = unknown | incoherent | out_of_range | negative | too_large
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if unknown[i]:
        message = f"unknown label {unknown_label!r}"
    elif incoherent[i]:
        message = f"label {LABELS[label[i]]} inconsistent with polarity {float(pol[i])}"
    elif out_of_range[i]:
        message = f"polarity {float(pol[i])} outside [-1, 1]"
    elif negative[i]:
        message = "engagement counts must be non-negative"
    else:
        message = f"engagement count above {MAX_COUNT}"
    raise ParseError(f"{path}:{table.line[i]}: {message}")


def load_sentiment_csv(path: str | Path, lexicon: Lexicon | None = None) -> SentimentTable:
    """Read sentiment rows into one SentimentTable in a single pass.

    Columns (by header name, in any order): date, asset, and optionally
    text, label, polarity, likes, retweets and comments; an absent count
    column reads as 0.  A row with both label and polarity is taken as
    labeled; every other row needs ``lexicon``, and label_text scores them
    after the pass, in file order, each distinct text once per BLOCK_ROWS
    rows.  The file is read by ``csvfile.read_csv``, and texts may hold
    quoted line breaks.  A bad field is a ParseError that names the record's
    first file line.
    """
    path = Path(path)
    # per row: day, asset, likes, retweets, comments, line
    ints, label, polarity = array("q"), array("b"), array("d")
    scored = array("b")
    text: list[str] = []
    ordinal: dict[str, int] = {}  # date field -> day ordinal
    code: dict[str, int] = {}  # asset field -> code
    assets: dict[str, int] = {}  # stripped asset name -> code
    unknown_label = None  # the first label outside LABELS

    def table() -> SentimentTable:
        n = len(polarity)  # appended last: rows read in full
        columns = np.frombuffer(ints, dtype=np.int64)[:6 * n].reshape(n, 6)
        return SentimentTable(
            assets=tuple(assets),
            day=columns[:, 0],
            asset=columns[:, 1],
            text=text,
            label=np.frombuffer(label, dtype=np.int8),
            polarity=np.frombuffer(polarity, dtype=np.float64),
            engagement=columns[:, 2:5],
            line=columns[:, 5],
            scored=np.frombuffer(scored, dtype=np.bool_),
        )

    with read_csv(path, ("date", "asset"), multiline=True) as (header, records):
        column = {name: i for i, name in enumerate(header)}
        i_date, i_asset = column["date"], column["asset"]
        i_text, i_label, i_pol = (column.get(c) for c in ("text", "label", "polarity"))
        i_counts = [column.get(c) for c in ENGAGEMENT]
        neutral = _LABEL_CODES[NEUTRAL]
        if None in i_counts:
            def counts_of(row):
                return tuple("" if i is None else row[i] for i in i_counts)
        else:
            counts_of = itemgetter(*i_counts)
        try:
            for line, row in records:
                try:
                    d = ordinal[row[i_date]]
                except KeyError:
                    d = dt.date.fromisoformat(row[i_date].strip()).toordinal()
                    ordinal[row[i_date]] = d
                if not len(text) % BLOCK_ROWS:
                    shared: dict[str, str] = {}  # this block's texts, each held once
                t = "" if i_text is None else row[i_text]
                if (i_label is not None and row[i_label]
                        and i_pol is not None and row[i_pol]):
                    name = row[i_label].strip()
                    p = float(row[i_pol])
                    c = _LABEL_CODES.get(name, _UNKNOWN)
                    if c == _UNKNOWN and unknown_label is None:
                        unknown_label = name
                elif lexicon is None:
                    raise ValueError("unlabeled row and no lexicon supplied")
                else:
                    c = None  # labeled after the pass
                try:
                    a = code[row[i_asset]]
                except KeyError:
                    a = assets.setdefault(row[i_asset].strip(), len(assets))
                    code[row[i_asset]] = a
                likes, retweets, comments = counts_of(row)
                try:
                    likes, retweets, comments = int(likes), int(retweets), int(comments)
                except ValueError:
                    likes, retweets, comments = _count(likes), _count(retweets), _count(comments)
                ints.extend((d, a, likes, retweets, comments, line))
                text.append(shared.setdefault(t, t))
                scored.append(c is None)
                if c is None:
                    c, p = neutral, 0.0  # valid until the label is set
                label.append(c)
                polarity.append(p)
        except (ParseError, ValueError, OverflowError) as exc:
            # an earlier row may already be invalid: name the first bad row
            _validate(path, table(), unknown_label)
            if isinstance(exc, ParseError):
                raise
            message = (f"engagement count above {MAX_COUNT}"  # a count beyond int64
                       if isinstance(exc, OverflowError) else exc)
            raise ParseError(f"{path}:{line}: {message}") from exc
    for lo in range(0, len(scored), BLOCK_ROWS):
        memo: dict[str, tuple[int, float]] = {}
        for i in compress(range(lo, lo + BLOCK_ROWS), scored[lo:lo + BLOCK_ROWS]):
            try:
                label[i], polarity[i] = memo[text[i]]
            except KeyError:
                name, p = label_text(text[i], lexicon)
                label[i], polarity[i] = memo[text[i]] = _LABEL_CODES[name], p
    result = table()
    _validate(path, result, unknown_label)
    return result
