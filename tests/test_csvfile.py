import re
from pathlib import Path

import pytest

import sentfolio
from sentfolio.csvfile import read_csv
from sentfolio.errors import ParseError

STAMP = "# config=000000000000 seed=0\n"


def records(path, required=("a",), **kwargs):
    with read_csv(path, required, **kwargs) as (header, rows):
        return header, list(rows)


def test_lines_count_the_stamp_and_blank_lines(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(STAMP + "a,b\n1,2\n\n\n3,4\n")
    assert records(path, stamped=True) == (["a", "b"], [(3, ["1", "2"]), (6, ["3", "4"])])


def test_multiline_record_is_named_by_its_first_line(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text('a,b\n1,"x\ny"\n3,4\n')
    assert records(path, multiline=True)[1] == [(2, ["1", "x\ny"]), (4, ["3", "4"])]
    with pytest.raises(ParseError, match=r"f\.csv:2: quoted field runs on to line 3$"):
        records(path)


@pytest.mark.parametrize("text, stamped, message", [
    ("b\n1\n", False, r"f\.csv:1: header must contain a$"),
    (STAMP, True, r"f\.csv:2: header must contain a$"),
    ("a,b\n1,2\n3\n", False, r"f\.csv:3: 1 fields, expected 2$"),
    ('a,b\n1,2\n3,"4\n', False, r"f\.csv:3: unexpected end of data$"),
    ('a,b\n1,"2"x\n', False, r"f\.csv:2: ',' expected after '\"'$"),
    ('a,b\n1,2\n3,"' + "4" * 131_073 + '"\n', False, r"f\.csv:3: field larger than field limit"),
    (STAMP + '"a\n', True, r"f\.csv:2: unexpected end of data$"),
])
def test_refusals_name_the_first_line_of_the_record(tmp_path, text, stamped, message):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        records(path, stamped=stamped, multiline=True)


def test_only_the_reader_module_calls_the_csv_reader():
    # one set of CSV rules: every file goes through csvfile.read_csv
    calls = [f"{path.name}:{n}"
             for path in sorted(Path(sentfolio.__file__).parent.glob("*.py"))
             if path.name != "csvfile.py"
             for n, line in enumerate(path.read_text().splitlines(), start=1)
             if re.search(r"\bcsv\.(reader|DictReader)\b", line)]
    assert calls == []
