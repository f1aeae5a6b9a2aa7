"""One CSV reader for every file sentfolio reads.

``read_csv`` reads with ``csv.reader(strict=True)`` and skips blank lines
and an artifact's ``# config=`` stamp line, which still counts in line
numbers.  It refuses a header that lacks a required column, a row whose
width differs from the header's, a record that spans lines in a file whose
texts may not hold line breaks, and whatever ``csv`` refuses, such as an
unterminated quote or a field over ``csv.field_size_limit()`` characters,
and a file that is not UTF-8.  A leading UTF-8 byte order mark, as some
spreadsheet programs write, is dropped.
Each refusal is one ParseError that names the record's first file line.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from .errors import ParseError, undecodable

Records = Iterator[tuple[int, list[str]]]


@contextmanager
def read_csv(path: str | Path, required: tuple[str, ...], *, stamped: bool = False,
             multiline: bool = False) -> Iterator[tuple[list[str], Records]]:
    """``with read_csv(path, required) as (header, records)``: ``records``
    yields ``(first file line, fields)`` for each row after the header.

    ``required`` names the columns the header must hold, ``stamped`` says
    line 1 is a stamp, and ``multiline`` lets quoted fields hold line breaks.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _records(path, fh, stamped, multiline)
        line, header = next(records, (1 + stamped, []))
        if not set(required).issubset(header):
            *rest, last = required
            names = f"{', '.join(rest)} and {last}" if rest else last
            raise ParseError(f"{path}:{line}: header must contain {names}")
        yield header, records


def _records(path, fh, stamped: bool, multiline: bool) -> Records:
    """The header, then each row of its width, with its first file line."""
    offset = int(stamped)  # lines read before the csv reader starts
    end = offset  # the last file line of the previous record
    width = None  # the header's, once read
    try:
        if stamped:
            fh.readline()
        reader = csv.reader(fh, strict=True)
        for row in reader:
            start, end = end + 1, reader.line_num + offset
            if end != start and not multiline:
                raise ParseError(f"{path}:{start}: quoted field runs on to line {end}")
            if len(row) != width:
                if width is None:
                    width = len(row)
                elif not row:
                    continue
                else:
                    raise ParseError(f"{path}:{start}: {len(row)} fields, expected {width}")
            yield start, row
    except csv.Error as exc:
        start, end = end + 1, reader.line_num + offset
        spans = end != start and not multiline
        message = f"quoted field runs on to line {end}" if spans else exc
        raise ParseError(f"{path}:{start}: {message}") from exc
    except UnicodeDecodeError as exc:
        raise undecodable(path) from exc
