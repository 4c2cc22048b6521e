"""The CSV cell formatter: its exact-type fast path gives the same text as
the general rules."""

import datetime as dt

import numpy as np
import pytest

from mlca_trends.inputs import format_cell, read_csv, write_csv


@pytest.mark.parametrize("x", [0.0, -0.0, 1.5, 1 / 3, 1e-300, 6.02e23, 123456789.123456789,
                               float("inf"), float("-inf"), float("nan")])
def test_numpy_float64_formats_like_float(x):
    assert format_cell(np.float64(x)) == format_cell(float(x)) == f"{x:.12g}"


def test_bool_int_str_and_none_keep_their_text():
    assert format_cell(True) == "True"
    assert format_cell(False) == "False"
    assert format_cell(7) == "7"
    assert format_cell(np.int64(7)) == "7"
    assert format_cell("a,b") == "a,b"
    assert format_cell("") == ""
    assert format_cell(None) == ""


def test_datetime_keeps_its_time_and_date_does_not():
    assert format_cell(dt.date(2021, 3, 4)) == "2021-03-04"
    assert format_cell(dt.datetime(2021, 3, 4, 5, 6, 7)) == "2021-03-04T05:06:07"


def test_written_table_reads_back(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], ([x, dt.date(2020, 1, 2), None] for x in (0.1, "x,y")))
    header, rows = read_csv(path, ValueError, "table")
    assert header == ["a", "b", "c"]
    assert [row for _, row in rows] == [
        {"a": "0.1", "b": "2020-01-02", "c": ""},
        {"a": "x,y", "b": "2020-01-02", "c": ""},
    ]
