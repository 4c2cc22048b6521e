"""The CSV cell formatter and line writer, and the CSV reader as the table
parsers see it: short and long rows, blank lines, line numbers, repeated
header names, a byte-order mark, a column map and a lacking optional column."""

import csv
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlca_trends.catalog import CARD_COLUMNS, parse_card_table
from mlca_trends.inputs import csv_line, format_cell, read_csv, write_csv
from mlca_trends.lca import load_mix_table
from mlca_trends.systems import SYSTEM_COLUMNS, SystemRecord, parse_systems_table


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
    write_csv(path, ["a", "b", "c"],
              (csv_line([x, dt.date(2020, 1, 2), None]) for x in (0.1, "x,y")))
    assert path.read_bytes() == b'a,b,c\r\n0.1,2020-01-02,\r\n"x,y",2020-01-02,\r\n'
    header, rows = read_csv(path, ValueError, "table")
    assert header == ["a", "b", "c"]
    assert [row for _, row in rows] == [
        ["0.1", "2020-01-02", ""],
        ["x,y", "2020-01-02", ""],
    ]


# Pieces of a text cell: each character the quoting rule looks for, NUL,
# non-ASCII (a line separator too), a space-led and a plain word
_PIECES = [",", '"', "\r", "\n", "\r\n", "\x00", "é", "漢", "\u2028", " lead", "plain"]
_text_cells = st.lists(st.sampled_from(_PIECES), max_size=4).map("".join) | st.text(max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(_text_cells, min_size=2, max_size=6), min_size=1, max_size=5))
def test_written_bytes_equal_csv_writers(tmp_path_factory, rows):
    """csv.writer is the oracle: for rows of two or more text cells the line
    writer quotes exactly the cells it quotes, and ends lines as it does."""
    directory = tmp_path_factory.mktemp("rows")
    write_csv(directory / "lines.csv", rows[0], map(csv_line, rows[1:]))
    with (directory / "oracle.csv").open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    assert (directory / "lines.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


def _table(tmp_path, text, name="t.csv", encoding="utf-8"):
    path = tmp_path / name
    path.write_bytes(text.encode(encoding))
    return path


SYSTEMS_HEADER = ",".join(SYSTEM_COLUMNS)


def test_a_short_row_is_padded_with_blank_cells(tmp_path):
    text = f"{SYSTEMS_HEADER}\nX,2021-01-01,1e20\n"
    records, errors = parse_systems_table(_table(tmp_path, text))
    assert errors == []
    assert records == [SystemRecord("X", dt.date(2021, 1, 1), training_flop=1e20)]
    text = ",".join(CARD_COLUMNS) + "\nCard,NVIDIA,2020-01-01,600\n"
    cards, errors = parse_card_table(_table(tmp_path, text, "cards.csv"), "other")
    assert errors == []
    assert (cards[0].die_area_mm2, cards[0].memory_type, cards[0].tdp_w) == (600.0, None, None)


def test_a_long_rows_extra_cells_are_ignored(tmp_path):
    text = f"{SYSTEMS_HEADER}\nX,2021-01-01,,V100,8,24,USA,likely,true,extra,2099-99-99\n"
    records, errors = parse_systems_table(_table(tmp_path, text))
    assert errors == []
    assert records == [SystemRecord("X", dt.date(2021, 1, 1), hardware_names=("V100",),
                                    hardware_quantity=8, training_hours=24.0, countries=("USA",),
                                    confidence="likely", finetuned=True)]


def test_blank_lines_are_skipped_and_later_rows_keep_their_line_numbers(tmp_path):
    text = f"{SYSTEMS_HEADER}\n\nA,2021-01-01\n\n\nB,2021-13-01\nC,2021-01-02\n\n"
    records, errors = parse_systems_table(_table(tmp_path, text))
    assert [r.name for r in records] == ["A", "C"]
    assert [(e.line, e.message) for e in errors] == [
        (6, "column 'publication_date': cannot parse ISO date from '2021-13-01'")
    ]


def test_a_quoted_multi_line_cell_gets_the_line_its_row_ends_on(tmp_path):
    text = (f'{SYSTEMS_HEADER}\n"Two\nlines",2021-13-01\nB,2021-01-01,x\n'
            f'"Three\n\nlines",2021-01-01\nD,2021-01-01,,,,,,,maybe\n')
    records, errors = parse_systems_table(_table(tmp_path, text))
    assert [r.name for r in records] == ["Three\n\nlines"]
    assert [e.line for e in errors] == [3, 4, 8]


def test_of_two_header_columns_with_the_same_name_the_last_wins(tmp_path):
    text = "name,publication_date,name,countries\nFirst,2021-01-01,Last,USA\n"
    records, _ = parse_systems_table(_table(tmp_path, text))
    assert [(r.name, r.countries) for r in records] == [("Last", ("USA",))]
    text = "country,carbon_intensity_g_per_kwh,adpe_kgsb_per_kwh,country\nXXX,100,1e-8,USA\n"
    mixes = load_mix_table(_table(tmp_path, text, "mixes.csv"))
    assert list(mixes) == ["USA"]


def test_a_header_led_by_a_byte_order_mark_reads_its_first_column(tmp_path):
    text = f"{SYSTEMS_HEADER}\nX,2021-01-01\n"
    records, errors = parse_systems_table(_table(tmp_path, text, encoding="utf-8-sig"))
    assert (errors, [r.name for r in records]) == ([], ["X"])
    text = ",".join(CARD_COLUMNS) + "\nCard,NVIDIA,2020-01-01\n"
    cards, errors = parse_card_table(_table(tmp_path, text, "c.csv", "utf-8-sig"), "other")
    assert (errors, [c.name for c in cards]) == ([], ["Card"])


def test_a_column_map_and_a_lacking_optional_column(tmp_path):
    column_map = {"Model": "name", "Date": "publication_date", "Chips": "hardware_quantity",
                  "Where": "countries"}
    text = "Where,Model,Unused,Date,Chips\nGBR;USA,X,junk,2021-01-01,8\n,Y,,2022-02-02,\n"
    records, errors = parse_systems_table(_table(tmp_path, text), column_map)
    assert errors == []
    assert records == [
        SystemRecord("X", dt.date(2021, 1, 1), hardware_quantity=8, countries=("GBR", "USA")),
        SystemRecord("Y", dt.date(2022, 2, 2)),
    ]
    # without finetuned, confidence or any numeric column: each reads as blank
    text = "name,publication_date,hardware_names\nX,2021-01-01,A100\n"
    records, errors = parse_systems_table(_table(tmp_path, text, "b.csv"))
    assert errors == []
    assert records == [SystemRecord("X", dt.date(2021, 1, 1), hardware_names=("A100",))]
