"""CSV ingestion, average-weight completion, labels, synthetic generation."""

import codecs
import csv
import io
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.dtypes import StringDType

import cascadefin as cf
from cascadefin import ingestion
from cascadefin.ingestion import expected_columns

from helpers import dense_synthetic

nan = np.nan


def table(*rows):
    """RawTable of (bank_id, total_assets, total_liabilities, holdings) rows;
    a None holding is a blank cell."""
    ids, assets, liabilities, holdings = zip(*rows)
    return cf.RawTable(ids, np.array(assets), np.array(liabilities),
                       np.array([[nan if v is None else v for v in h] for h in holdings]))


def write(path, text):
    path.write_text(text)
    return str(path)


# --- raw loading ---------------------------------------------------------

def test_load_raw_csv_blank_means_missing(tmp_path):
    path = write(tmp_path / "raw.csv",
                 "bank_id,total_assets,total_liabilities,asset_00,asset_01\n"
                 "b1,100.0,90.0,40.0,\n"
                 "b2,50.0,30.0,,10.0\n")
    raw = cf.load_raw_csv(path)
    assert tuple(raw.bank_ids) == ("b1", "b2")
    assert isinstance(raw.bank_ids.dtype, StringDType)
    assert raw.total_assets.tolist() == [100.0, 50.0]
    assert raw.total_liabilities.tolist() == [90.0, 30.0]
    assert np.array_equal(raw.holdings, [[40.0, nan], [nan, 10.0]], equal_nan=True)
    assert ingestion._row_lines(path, 0, 1) == [2, 3]


def test_load_raw_csv_ignores_a_byte_order_mark(tmp_path):
    text = ("bank_id,total_assets,total_liabilities,asset_00,asset_01\n"
            "b1,100.0,90.0,40.0,\n")
    paths = [write(tmp_path / "plain.csv", text), str(tmp_path / "marked.csv")]
    (tmp_path / "marked.csv").write_bytes(codecs.BOM_UTF8 + text.encode())
    plain, marked = map(cf.load_raw_csv, paths)
    assert tuple(marked.bank_ids) == tuple(plain.bank_ids) == ("b1",)
    assert np.array_equal(marked.holdings, plain.holdings, equal_nan=True)
    assert [ingestion._row_lines(path, 0) for path in paths] == [[2], [2]]


@pytest.mark.parametrize("header, message", [
    ("bank,total_assets,x", "expected column 'bank_id' at position 0, found 'bank'"),
    ("bank_id,total_assets",
     "expected column 'total_liabilities' at position 2, found '<missing>'"),
    ("bank_id,assets,total_liabilities,asset_00",
     "expected column 'total_assets' at position 1, found 'assets'"),
    ("bank_id,total_assets,liabilities,asset_00",
     "expected column 'total_liabilities' at position 2, found 'liabilities'"),
    ("bank_id,total_assets,total_liabilities,asset_01",
     "expected column 'asset_00' at position 3, found 'asset_01'"),
    ("bank_id,total_assets,total_liabilities,asset_00,asset_02,asset_01",
     "expected column 'asset_01' at position 4, found 'asset_02'"),
    ("bank_id,total_assets,total_liabilities", "no asset_NN columns found"),
], ids=["id", "missing", "assets", "liabilities", "first-asset", "asset-order", "no-assets"])
def test_load_raw_csv_header_is_checked(tmp_path, header, message):
    path = write(tmp_path / "bad.csv", header + "\nb,10,5,5,5,5\n")
    with pytest.raises(cf.SchemaError, match=f"^{re.escape(message)}$"):
        cf.load_raw_csv(path)


def test_load_raw_csv_rejects_bad_cells(tmp_path):
    path = write(tmp_path / "neg.csv",
                 "bank_id,total_assets,total_liabilities,asset_00\nb1,10,5,-1\n")
    with pytest.raises(cf.SchemaError, match="row 2.*negative holding"):
        cf.load_raw_csv(path)
    path = write(tmp_path / "nan.csv",
                 "bank_id,total_assets,total_liabilities,asset_00\nb1,10,5,nan\n")
    with pytest.raises(cf.SchemaError, match="not finite"):
        cf.load_raw_csv(path)
    path = write(tmp_path / "text.csv",
                 "bank_id,total_assets,total_liabilities,asset_00\nb1,10,5,oops\n")
    with pytest.raises(cf.SchemaError, match="non-numeric"):
        cf.load_raw_csv(path)
    path = write(tmp_path / "short.csv",
                 "bank_id,total_assets,total_liabilities,asset_00\nb1,10,5\n")
    with pytest.raises(cf.SchemaError, match="expected 4 fields"):
        cf.load_raw_csv(path)


# spellings float() reads, and the error of each cell spelling the parse refuses
READ_AS_FLOAT = ["+1", ".5", "5.", "1E5", "1e-400", "-0.0", "4.9e-324"]
REFUSED_CELLS = {"1_0": "has non-numeric value '1_0'", "١": "has non-numeric value '١'",
                 "0x10": "has non-numeric value '0x10'", "1.5e": "has non-numeric value '1.5e'",
                 **dict.fromkeys(["nan", "NaN", " nan ", "inf", "-inf", "Infinity", "1e309"],
                                 "is not finite")}


@pytest.mark.parametrize("block_rows", [1, 3, 128, 8192])
def test_load_raw_csv_reads_a_cell_as_float_does(tmp_path, monkeypatch, block_rows):
    # a block's cells go to float64 in one numpy call, which must read each
    # spelling bit for bit as float() does; each row holds every spelling and
    # a blank, and its totals are padded with spaces
    monkeypatch.setattr(ingestion, "BLOCK_ROWS", block_rows)
    n = len(READ_AS_FLOAT)
    rows = [[READ_AS_FLOAT[(i + m) % n] for m in range(n)] + [""] for i in range(n)]
    totals = [(f" {i}.5 ", f"  {i}e2") for i in range(n)]
    text = ",".join(expected_columns(n + 1)) + "\n" + "".join(
        f"b{i},{a},{b},{','.join(cells)}\n" for i, ((a, b), cells) in enumerate(zip(totals, rows)))
    raw = cf.load_raw_csv(write(tmp_path / "raw.csv", text))
    assert raw.total_assets.tobytes() == np.array([float(a) for a, _ in totals]).tobytes()
    assert raw.total_liabilities.tobytes() == np.array([float(b) for _, b in totals]).tobytes()
    expected = np.array([[float(c) if c else nan for c in cells] for cells in rows])
    assert raw.holdings.tobytes() == expected.tobytes()


@pytest.mark.parametrize("block_rows", [1, 3, 128, 8192])
@pytest.mark.parametrize("cell", REFUSED_CELLS)
def test_load_raw_csv_refuses_a_cell_by_its_spelling(tmp_path, monkeypatch, block_rows, cell):
    # NaN marks a blank cell in the table; a number that reads NaN is not one,
    # so the bad row holds a blank too
    monkeypatch.setattr(ingestion, "BLOCK_ROWS", block_rows)
    head = "bank_id,total_assets,total_liabilities,asset_00,asset_01\na,10,5,5,\nb,10,5,,5\n"
    message = re.escape(REFUSED_CELLS[cell])
    path = write(tmp_path / "holding.csv", head + f"c,10,5,,{cell}\nd,10,5,5,5\n")
    with pytest.raises(cf.SchemaError, match=f"^row 4: column 'asset_01' {message}$"):
        cf.load_raw_csv(path)
    path = write(tmp_path / "total.csv", head + f"c,{cell},5,,5\nd,10,5,5,5\n")
    with pytest.raises(cf.SchemaError, match=f"^row 4: column 'total_assets' {message}$"):
        cf.load_raw_csv(path)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 128, 8192])
@pytest.mark.parametrize("rows, message", [
    ("a,10,5,5\n\nb,10,5,5\nc,10,5,0x10\n",
     "row 5: column 'asset_00' has non-numeric value '0x10'"),
    ("a,10,5,5\n\nb,10,5,5\nc,,5,5\n", "row 5: column 'total_assets' has non-numeric value ''"),
    ("a,10,5,5\n\nb,10,5,-1\nc,10,5,0x10\n", "row 4: negative holding asset_00"),
    ("a,10,5,5\n\na,10,5,5\nc,10,5,1.5e\n", "row 4: duplicate bank_id 'a', first on row 2"),
], ids=["refused-cell", "blank-total", "negative-before-it", "repeat-before-it"])
def test_load_raw_csv_finds_the_first_bad_row_around_a_refused_cell(tmp_path, monkeypatch,
                                                                     block_rows, rows, message):
    # a cell float() refuses fails its block's one numpy call, and the block
    # is walked again a row at a time; the error is still the first bad row's
    monkeypatch.setattr(ingestion, "BLOCK_ROWS", block_rows)
    path = write(tmp_path / "raw.csv", "bank_id,total_assets,total_liabilities,asset_00\n" + rows)
    with pytest.raises(cf.SchemaError, match=f"^{re.escape(message)}$"):
        cf.load_raw_csv(path)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 8192])
def test_load_raw_csv_reports_first_bad_row_across_blocks(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(ingestion, "BLOCK_ROWS", block_rows)
    head = "bank_id,total_assets,total_liabilities,asset_00,asset_01\n"
    good = "".join(f"b{i},10,5,5,{'' if i % 2 else 5}\n" for i in range(5))
    raw = cf.load_raw_csv(path := write(tmp_path / "good.csv", head + good + "\n"))
    assert tuple(raw.bank_ids) == tuple(f"b{i}" for i in range(5))
    assert ingestion._row_lines(path, *range(5)) == [2, 3, 4, 5, 6]
    assert np.isnan(raw.holdings[:, 1]).tolist() == [False, True, False, True, False]
    # row 4's negative holding comes before row 5's malformed row and row 6's text
    bad = head + "a,10,5,5,5\nb,10,5,5,5\nc,10,5,-1,5\nd,1\ne,10,5,x,5\n"
    with pytest.raises(cf.SchemaError, match=r"^row 4: negative holding asset_00$"):
        cf.load_raw_csv(write(tmp_path / "bad.csv", bad))


def test_load_raw_csv_rejects_duplicate_bank_id(tmp_path, monkeypatch):
    monkeypatch.setattr(ingestion, "BLOCK_ROWS", 2)
    path = write(tmp_path / "dup.csv",
                 "bank_id,total_assets,total_liabilities,asset_00\n"
                 "a,10,5,10\nb,10,5,10\nc,10,5,10\n a ,10,5,10\n")
    with pytest.raises(cf.SchemaError,
                       match=r"^row 5: duplicate bank_id 'a', first on row 2$"):
        cf.load_raw_csv(path)


def test_load_raw_csv_tells_a_trailing_nul_apart(tmp_path):
    # the parse strips whitespace, and NUL is none: "a" and "a\0" are two ids
    head = "bank_id,total_assets,total_liabilities,asset_00\n"
    raw = cf.load_raw_csv(write(tmp_path / "two.csv", head + "a,10,5,10\na\0,10,5,10\n"))
    assert tuple(raw.bank_ids) == ("a", "a\0")
    path = write(tmp_path / "dup.csv", head + "a,10,5,10\na\0,10,5,10\nb,10,5,10\na\0,10,5,10\n")
    with pytest.raises(cf.SchemaError,
                       match=r"^row 5: duplicate bank_id 'a\\x00', first on row 3$"):
        cf.load_raw_csv(path)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 8192])
@pytest.mark.parametrize("rows, message", [
    ("a,10,5,10\nb,10,5,10\na,10,5,10\nc,10\n", "row 4: duplicate bank_id 'a', first on row 2"),
    ("a,10,5,10\nb,10,5,10\na,10\n", "row 4: expected 4 fields, found 2"),
    ("a,10,5,10\nb,10,5,10\na,10,5,x\n", "row 4: duplicate bank_id 'a', first on row 2"),
    ("a,10,5,10\nb,10,5,10\nb,10,5,10\na,10,5,10\n",
     "row 4: duplicate bank_id 'b', first on row 3"),
], ids=["before-a-later-bad-row", "after-its-field-count", "before-its-cells", "first-repeat"])
def test_load_raw_csv_orders_a_duplicate_among_row_errors(tmp_path, monkeypatch, block_rows,
                                                          rows, message):
    # the first bad row's error, in _file_error's order of checks, where an
    # earlier row repeating a bank_id is a bad row too
    monkeypatch.setattr(ingestion, "BLOCK_ROWS", block_rows)
    path = write(tmp_path / "dup.csv", "bank_id,total_assets,total_liabilities,asset_00\n" + rows)
    with pytest.raises(cf.SchemaError, match=f"^{message}$"):
        cf.load_raw_csv(path)


def test_load_raw_csv_numbers_a_row_by_its_first_file_line(tmp_path):
    # a quoted cell can span lines, so a row's line is not its record count
    head = "bank_id,total_assets,total_liabilities,asset_00\n"
    spanning = 'a,"100.0\n",50.0,100.0\n'
    path = write(tmp_path / "bad.csv", head + spanning + "b,100.0,50.0,x\n")
    with pytest.raises(cf.SchemaError,
                       match=r"^row 4: column 'asset_00' has non-numeric value 'x'$"):
        cf.load_raw_csv(path)
    path = write(tmp_path / "good.csv", head + spanning + "\nb,100.0,50.0,100.0\n")
    assert tuple(cf.load_raw_csv(path).bank_ids) == ("a", "b")
    assert ingestion._row_lines(path, 0, 1) == [2, 5]


BAD_HEAD = "bank_id,total_assets,total_liabilities,asset_00,asset_01\n"
BAD_GOOD = "".join(f"b{i},10,5,5,5\n" for i in range(10))
# two ids quoted across lines, "a" on lines 2-3 and "b" on lines 5-6, a blank line between
BAD_QUOTED = '"a\n",10,5,5,5\n\n"\nb",10,5,5,5\n'
# the first error of each file, read by load_raw_csv or load_completed_network
# (the loader of phase --input); a repeat found after the parse and one found
# beside a bad row both name the lines of two earlier rows
BAD_INPUTS = {
    "repeat-early": ("raw", "a,10,5,5,5\na,10,5,5,5\n" + BAD_GOOD,
                     "row 3: duplicate bank_id 'a', first on row 2"),
    "repeat-late": ("raw", BAD_GOOD + "b3,10,5,5,5\n",
                    "row 12: duplicate bank_id 'b3', first on row 5"),
    "repeat-before-a-bad-row": ("raw", BAD_GOOD + "b7,10,5,5,5\nc,10,5,x,5\n",
                                "row 12: duplicate bank_id 'b7', first on row 9"),
    "bad-row-before-a-repeat": ("raw", BAD_GOOD + "c,10,5,-1,5\nb7,10,5,5,5\n",
                                "row 12: negative holding asset_00"),
    "repeat-with-bad-cells": ("raw", BAD_GOOD + "b2,10,5,x,5\n",
                              "row 12: duplicate bank_id 'b2', first on row 4"),
    "repeat-of-a-multi-line-id": ("raw", BAD_QUOTED + BAD_GOOD + '"\n\na\n",10,5,5,5\n',
                                  "row 17: duplicate bank_id 'a', first on row 2"),
    "bad-row-after-multi-line-ids": ("raw", BAD_QUOTED + BAD_GOOD + 'c,"10\n",5,5\n',
                                     "row 17: expected 5 fields, found 4"),
    "multi-line-repeat-before-a-bad-row": ("raw", BAD_QUOTED + BAD_GOOD + "a,10,5,5,5\nc,1\n",
                                           "row 17: duplicate bank_id 'a', first on row 2"),
    "completed-blank": ("completed", BAD_QUOTED + BAD_GOOD + "\nc,10,5,5,\n"
                        + BAD_GOOD.replace("b", "d"), "row 18: blank asset_01; run ingest first"),
    "completed-off-total": ("completed", BAD_QUOTED + BAD_GOOD + "\nc,10,5,5,4\n"
                            + BAD_GOOD.replace("b", "d"),
                            "row 18: holdings sum 9.0 does not match total_assets 10.0; "
                            "run ingest first"),
}
LAYOUTS = {"lf": lambda text: text, "crlf": lambda text: text.replace("\n", "\r\n"),
           "cr": lambda text: text.replace("\n", "\r"), "bom": lambda text: "\ufeff" + text}


@pytest.mark.parametrize("block_rows", [1, 2, 3, 8192])
@pytest.mark.parametrize("case", BAD_INPUTS)
def test_error_messages_name_the_same_lines_at_every_block_size(tmp_path, monkeypatch,
                                                                 block_rows, case):
    # every line break counts as one line, in a quoted cell too, and a blank
    # row or a byte order mark moves no row's line
    monkeypatch.setattr(ingestion, "BLOCK_ROWS", block_rows)
    reader, rows, message = BAD_INPUTS[case]
    load = cf.load_raw_csv if reader == "raw" else cf.load_completed_network
    for layout, lay_out in LAYOUTS.items():
        path = tmp_path / f"{layout}.csv"
        path.write_bytes(lay_out(BAD_HEAD + rows).encode())
        with pytest.raises(cf.SchemaError) as error:
            load(str(path))
        assert (layout, str(error.value)) == (layout, message)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 8192])
@pytest.mark.parametrize("text, message", [
    ('"a' + "b,10,5,10\n" * 20_000,
     r"^row 2: field larger than field limit \(131072\)$"),
    ("a,10,5,10\n\n" + '"b\n' + "x" * 200_000 + '",10,5,10\n',
     r"^row 4: field larger than field limit \(131072\)$"),
], ids=["unclosed-quote", "long-quoted-id"])
def test_load_raw_csv_names_the_line_of_a_record_csv_refuses(tmp_path, monkeypatch,
                                                              block_rows, text, message):
    # csv.reader refuses a field over its size limit, and an unclosed quote
    # runs its field to the end of the file; the error names the line the
    # record starts on, not the one the reader stopped at
    monkeypatch.setattr(ingestion, "BLOCK_ROWS", block_rows)
    path = write(tmp_path / "raw.csv", "bank_id,total_assets,total_liabilities,asset_00\n" + text)
    with pytest.raises(cf.SchemaError, match=message):
        cf.load_raw_csv(path)
    path = write(tmp_path / "header.csv", '"bank_id' + "x" * 200_000 + "\n" + text)
    with pytest.raises(cf.SchemaError, match=r"^row 1: field larger"):
        cf.load_raw_csv(path)


@pytest.mark.parametrize("layout", ["lf", "crlf", "cr", "blank-lines", "no-final-newline"])
def test_load_raw_csv_reads_every_line_layout(layout, tmp_path):
    # the columns are sized by the file's line breaks before it is parsed
    lines = ["bank_id,total_assets,total_liabilities,asset_00,asset_01",
             "b1,100.0,90.0,40.0,", "b2,50.0,30.0,,10.0", '"c,3",20.0,10.0,5.0,15.0']
    plain = cf.load_raw_csv(write(tmp_path / "plain.csv", "\n".join(lines) + "\n"))
    text = {"lf": "\n".join(lines) + "\n",
            "crlf": "\r\n".join(lines) + "\r\n",
            "cr": "\r".join(lines) + "\r",
            "blank-lines": "\n\n".join(lines) + "\n\n",
            "no-final-newline": "\n".join(lines)}[layout]
    (tmp_path / "other.csv").write_bytes(text.encode())
    other = cf.load_raw_csv(str(tmp_path / "other.csv"))
    assert tuple(other.bank_ids) == tuple(plain.bank_ids) == ("b1", "b2", "c,3")
    for name in ("total_assets", "total_liabilities", "holdings"):
        assert getattr(other, name).tobytes() == getattr(plain, name).tobytes()
    assert other.holdings.flags.c_contiguous
    step = 2 if layout == "blank-lines" else 1
    lines = ingestion._row_lines(str(tmp_path / "other.csv"), 0, 1, 2)
    assert lines == [1 + step, 1 + 2 * step, 1 + 3 * step]


def test_expected_columns():
    assert expected_columns(2) == ["bank_id", "total_assets", "total_liabilities",
                                   "asset_00", "asset_01"]


# --- average weights -----------------------------------------------------

def test_average_weights_mean_over_present_rows():
    raw = table(("a", 100.0, 50.0, [25.0, None]),
                ("b", 100.0, 50.0, [75.0, 10.0]))
    avg = cf.compute_average_weights(raw)
    assert avg[0] == 0.5          # mean of 0.25 and 0.75, exact
    assert avg[1] == 0.1          # only row b reports asset 1


def test_average_weights_undefined_when_nobody_reports():
    avg = cf.compute_average_weights(table(("a", 100.0, 50.0, [100.0, None])))
    assert avg[0] == 1.0
    assert np.isnan(avg[1])


# --- completion ----------------------------------------------------------

def test_completion_worked_example():
    # residual 60 split over two missing assets with average weights 0.1 and
    # 0.3 lands 15 and 45 on them; a row whose reported cells meet its total,
    # exactly or above it by less than SUM_RTOL, fills its blanks with 0 and
    # is no repair
    raw = table(("donor", 100.0, 50.0, [60.0, 10.0, 30.0]),
                ("t", 100.0, 80.0, [40.0, None, None]),
                ("met", 100.0, 80.0, [100.0, None, None]),
                ("over", 100.0, 80.0, [100.00000005, None, None]))
    avg = cf.compute_average_weights(raw)
    assert avg[1] == 0.1 and avg[2] == 0.3
    net, report = cf.complete_dataset(raw)
    assert report == []
    assert net.holdings[1, 0] == 40.0
    assert np.allclose(net.holdings[1, 1:], [15.0, 45.0], rtol=1e-12)
    assert net.holdings[1].sum() == pytest.approx(100.0, rel=1e-9)
    assert net.holdings[2:].tolist() == [[100.0, 0.0, 0.0], [100.00000005, 0.0, 0.0]]


def test_completion_consistent_row_passes_through():
    net, report = cf.complete_dataset(table(("a", 100.0, 50.0, [60.0, 40.0])))
    assert report == []
    assert net.holdings[0].tolist() == [60.0, 40.0]


def test_completion_rescales_inconsistent_row():
    net, report = cf.complete_dataset(table(("a", 100.0, 50.0, [25.0, 25.0])))
    assert [r["action"] for r in report] == ["rescaled_inconsistent_row"]
    assert net.holdings[0].tolist() == [50.0, 50.0]


def test_completion_redistributes_zero_row():
    net, report = cf.complete_dataset(table(("d", 100.0, 50.0, [25.0, 75.0]),
                                            ("a", 100.0, 50.0, [0.0, 0.0])))
    assert report == [{"row_id": "a", "action": "redistributed_zero_row", "residual": 100.0}]
    assert net.holdings[1].sum() == pytest.approx(100.0, rel=1e-9)
    assert net.holdings[1, 1] > net.holdings[1, 0]


def test_completion_negative_residual_rescales_known():
    net, report = cf.complete_dataset(table(("d", 100.0, 50.0, [50.0, 25.0, 25.0]),
                                            ("a", 100.0, 80.0, [80.0, 40.0, None])))
    assert [r["action"] for r in report] == ["negative_residual_rescaled"]
    assert net.holdings[1, 2] == 0.0
    assert net.holdings[1].sum() == pytest.approx(100.0, rel=1e-9)
    # known holdings keep their ratio
    assert net.holdings[1, 0] / net.holdings[1, 1] == pytest.approx(2.0, rel=1e-12)


def test_completion_errors_on_undefined_average():
    # a column nobody reports is bad input, not a failure of the completion
    with pytest.raises(cf.SchemaError, match="average weight is undefined"):
        cf.complete_dataset(table(("a", 100.0, 50.0, [40.0, None])))


@pytest.mark.parametrize("rows, error, message", [
    ([("a", 0.0, 0.0, [1e308, 1e308])], cf.SchemaError,
     "bank a: reported holdings sum to inf"),
    ([("a", 1e300, 0.0, [1e-10, 1e-10])], cf.SchemaError,
     "bank a: completing the row overflows"),
    ([("d", 100.0, 50.0, [60.0, 40.0]), ("a", -5.0, 0.0, [-1.0, None])], ValueError,
     "bank a: negative residual with no known holdings"),
    ([("d", 100.0, 50.0, [60.0, 40.0]), ("a", -5.0, 0.0, [0.0, None])], ValueError,
     "bank a: negative residual with no known holdings"),
], ids=["holdings-sum-to-inf", "completion-overflows", "negative-known-sum",
        "negative-zero-known-sum"])
def test_completion_refuses_a_row_it_cannot_complete(rows, error, message):
    # rescaled to its total, the first row would be all zeros and meet its
    # zero total, the second inf, the third [-5, 0] and the fourth NaN, as
    # 0 * (-5 / 0) is, which a broken row shows too: the reference names its
    # negative residual first. The CSV parse refuses a negative total or
    # cell, a RawTable from the Python API does not
    with pytest.raises(error, match=message):
        cf.complete_dataset(table(*rows))


def test_completion_uniform_fill_when_averages_are_zero():
    # z's reported cell already meets its total: its blanks get 0, no repair
    net, report = cf.complete_dataset(table(("d", 100.0, 50.0, [100.0, 0.0, 0.0]),
                                            ("a", 100.0, 50.0, [40.0, None, None]),
                                            ("z", 100.0, 50.0, [100.0, None, None])))
    assert [(r["row_id"], r["action"]) for r in report] == \
        [("a", "uniform_fill_zero_average_weights")]
    assert net.holdings[1:].tolist() == [[40.0, 30.0, 30.0], [100.0, 0.0, 0.0]]


def test_row_sums_add_each_rows_present_cells():
    # rows of 2, 0 and 3 present cells: each count's rows are summed once
    values = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0], [1.0, 1.0, 1.0]])
    mask = np.array([[True, False, True], [False, False, False], [True, True, True]])
    assert ingestion._row_sums(values, mask).tolist() == [5.0, 0.0, 3.0]


def test_complete_dataset_collects_repairs():
    net, report = cf.complete_dataset(table(("d", 100.0, 50.0, [60.0, 40.0]),
                                            ("x", 100.0, 50.0, [10.0, 10.0])))
    assert tuple(net.bank_ids) == ("d", "x")
    assert [r["row_id"] for r in report] == ["x"]


# --- completed round trips -----------------------------------------------

def test_save_load_round_trip_is_exact(tmp_path, monkeypatch):
    net, _ = dense_synthetic(40, seed=17)
    path = tmp_path / "completed.csv"
    cf.save_completed_csv(net, path)
    loaded = cf.load_completed_network(path)
    assert tuple(loaded.bank_ids) == tuple(net.bank_ids)
    assert np.array_equal(loaded.holdings, net.holdings)
    assert np.array_equal(loaded.total_assets, net.total_assets)
    assert np.array_equal(loaded.total_liabilities, net.total_liabilities)
    # a second save produces identical bytes
    path2 = tmp_path / "again.csv"
    cf.save_completed_csv(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    # a network is written column by column, a block of rows at a time
    path3 = tmp_path / "network.csv"
    monkeypatch.setattr(ingestion, "BLOCK_ROWS", 7)
    cf.save_completed_csv(loaded, path3)
    assert path.read_bytes() == path3.read_bytes()


def _raw_text(n_banks, seed):
    """A raw CSV of a synthetic network with about a fifth of the cells blank;
    completion rescales every 20th row, which has no blank and misses its
    total, and scales down the known cells of rows 5, 15, ..., whose totals
    are halved."""
    net, _ = dense_synthetic(n_banks, seed)
    gen = np.random.default_rng(seed)
    blank = gen.random(net.holdings.shape) < 0.2
    blank[:, 0] = False
    blank[::20] = False
    blank[5::10, 1] = True
    totals = net.total_assets.copy()
    totals[::20] *= 1.05
    totals[5::10] *= 0.5
    lines = [",".join(expected_columns(net.n_assets))]
    for i, bank_id in enumerate(net.bank_ids):
        cells = ["" if b else repr(v) for v, b in zip(net.holdings[i].tolist(), blank[i])]
        lines.append(",".join([bank_id, repr(float(totals[i])),
                               repr(float(net.total_liabilities[i])), *cells]))
    return "\n".join(lines) + "\n"


def test_completion_fills_the_raw_table_in_place(tmp_path):
    # ingest holds one N x M table: the network's holdings are the raw
    # table's, blanks filled
    raw = cf.load_raw_csv(write(tmp_path / "raw.csv", _raw_text(60, seed=4)))
    assert np.isnan(raw.holdings).any()
    net, _ = cf.complete_dataset(raw)
    assert np.shares_memory(net.holdings, raw.holdings)
    assert raw.holdings.tobytes() == net.holdings.tobytes()


@pytest.mark.parametrize("block_rows", [1, 2, 3, 8192])
def test_complete_and_save_do_not_depend_on_the_block_size(block_rows, tmp_path, monkeypatch):
    path = write(tmp_path / "raw.csv", _raw_text(60, seed=4))
    net, report = cf.complete_dataset(cf.load_raw_csv(path))
    cf.save_completed_csv(net, tmp_path / "default.csv")
    assert {r["action"] for r in report} == {"rescaled_inconsistent_row",
                                             "negative_residual_rescaled"}
    monkeypatch.setattr(ingestion, "COMPLETE_ROWS", block_rows)
    monkeypatch.setattr(ingestion, "BLOCK_ROWS", block_rows)
    # completion consumes its table, so the file is read again
    blocked, blocked_report = cf.complete_dataset(cf.load_raw_csv(path))
    assert blocked.holdings.tobytes() == net.holdings.tobytes()
    assert blocked_report == report
    cf.save_completed_csv(blocked, tmp_path / "blocked.csv")
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


def test_save_quotes_bank_ids_as_csv_writer_does(tmp_path):
    ids = ("plain", "a,b", 'say "hi"', "tab\there")
    net = cf.BankAssetNetwork(ids, np.array([[1.0, 2.0]] * 4), np.full(4, 3.0), np.full(4, 1.5))
    path = tmp_path / "completed.csv"
    cf.save_completed_csv(net, path)
    expect = io.StringIO()
    writer = csv.writer(expect, lineterminator="\n")
    writer.writerow(expected_columns(2))
    writer.writerows([bank_id, "3.0", "1.5", "1.0", "2.0"] for bank_id in ids)
    assert path.read_text() == expect.getvalue()
    assert tuple(cf.load_completed_network(path).bank_ids) == ids


def test_save_writes_utf_8_whatever_the_locale(tmp_path):
    # load_raw_csv reads UTF-8, so the writer must not take the locale's
    # encoding: ASCII here, in the C locale with UTF-8 mode and coercion off
    ids = ("é", "\U0001F600 x")
    path = tmp_path / "completed.csv"
    save = ("import sys, numpy as np, cascadefin as cf\n"
            f"ids = {ascii(ids)}\n"
            "net = cf.BankAssetNetwork(ids, np.ones((2, 1)), np.ones(2), np.full(2, 0.5))\n"
            "cf.save_completed_csv(net, sys.argv[1])\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cf.__file__)),
           "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run([sys.executable, "-c", save, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert tuple(cf.load_completed_network(path).bank_ids) == ids


def test_ingest_layers_peak_in_bounded_memory(tmp_path, monkeypatch):
    # on 10k rows each layer peaks at about 1.56 (parse, the table included),
    # 0.18 (average weights), 0.99 (complete), 0.16 (network checks, the
    # sorted copy of the ids included) and 0.15 (write) times the holdings'
    # bytes; one that builds a whole-table temporary, such as a copy of the
    # parsed holdings, a completed copy beside the raw table, an N x M
    # boolean mask, a copy of the id column or a stack of all columns, reads
    # above 2.36, 0.3, 1.9, 0.29 and 1.4; a parse that makes a Python float
    # of each cell, 256 rows a block, read 1.85
    def peak(layer, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = layer(*args)
        return result, tracemalloc.get_traced_memory()[1] - before

    max_rows = ingestion._max_rows

    def sized(path):
        # the parse's peak is taken once the row count's 1 MiB reads end: they
        # peak at 2.02 times the holdings' bytes, above the table itself
        size = max_rows(path)
        tracemalloc.reset_peak()
        return size

    monkeypatch.setattr(ingestion, "_max_rows", sized)
    path = write(tmp_path / "raw.csv", _raw_text(10_000, seed=5))
    tracemalloc.start()
    try:
        raw, parse = peak(cf.load_raw_csv, path)
        _, weights = peak(cf.compute_average_weights, raw)
        (net, _), complete = peak(cf.complete_dataset, raw)
        _, checks = peak(cf.BankAssetNetwork, net.bank_ids, net.holdings, net.total_assets,
                         net.total_liabilities)
        _, save = peak(cf.save_completed_csv, net, tmp_path / "completed.csv")
    finally:
        tracemalloc.stop()
    nbytes = raw.holdings.nbytes
    assert parse < 1.7 * nbytes
    assert weights < 0.25 * nbytes
    assert complete < 1.4 * nbytes
    assert checks < 0.25 * nbytes
    assert save < 0.7 * nbytes


def test_parse_holds_one_block_of_records_at_a_time(tmp_path, monkeypatch):
    # at 2500 rows a block the records of a block take about 1.4 times the
    # holdings' bytes of the 10k-row file: the parse peaks at about 4.90
    # times them, at 5.88 when it makes a Python float of each cell, and at
    # 7.31 when the next block is read while the last one is still bound
    monkeypatch.setattr(ingestion, "BLOCK_ROWS", 2500)
    path = write(tmp_path / "raw.csv", _raw_text(10_000, seed=5))
    tracemalloc.start()
    try:
        raw = cf.load_raw_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * raw.holdings.nbytes


def test_load_completed_rejects_blanks(tmp_path):
    path = write(tmp_path / "holey.csv",
                 "bank_id,total_assets,total_liabilities,asset_00\nb1,10.0,5.0,\n")
    with pytest.raises(cf.SchemaError, match="run ingest first"):
        cf.load_completed_network(path)


# --- labels --------------------------------------------------------------

def test_labels_round_trip(tmp_path):
    path = write(tmp_path / "labels.csv", "bank_id\nb2\nb1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = cf.load_labels(path)
    assert labels == frozenset({"b1", "b2"})


def test_labels_dedupe_warns(tmp_path):
    # b1 three times is two extra copies, though only one id repeats
    path = write(tmp_path / "dupes.csv", "bank_id\nb1\nb1\nb1\nb2\n")
    with pytest.warns(UserWarning, match="^label file contains 2 duplicate ids; deduplicated$"):
        labels = cf.load_labels(path)
    assert labels == frozenset({"b1", "b2"})


def test_labels_header_optional(tmp_path):
    path = write(tmp_path / "plain.csv", "b1\nb2\n")
    assert cf.load_labels(path) == frozenset({"b1", "b2"})


@pytest.mark.parametrize("text", ["\nbank_id\nB00001\n", "\n , \n Bank_ID \nB00001\n"],
                         ids=["after-a-blank-line", "after-blank-records"])
def test_labels_header_is_the_first_non_blank_record(text, tmp_path):
    assert cf.load_labels(write(tmp_path / "labels.csv", text)) == frozenset({"B00001"})


def test_labels_name_the_line_of_a_record_csv_refuses(tmp_path):
    path = write(tmp_path / "labels.csv", 'bank_id\nb1\n\n"' + "x" * 200_000 + '"\nb2\n')
    with pytest.raises(cf.SchemaError, match=r"^row 4: field larger than field limit \(131072\)$"):
        cf.load_labels(path)


@pytest.mark.parametrize("text", ["bank_id\nb1\nb2\n", "b1\nb2\n"], ids=["header", "plain"])
def test_labels_ignore_a_byte_order_mark(text, tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one
    path = tmp_path / "marked.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert cf.load_labels(str(path)) == frozenset({"b1", "b2"})


# --- synthetic generation ------------------------------------------------

def test_synthetic_is_deterministic():
    a, _ = dense_synthetic(50, seed=21)
    b, _ = dense_synthetic(50, seed=21)
    c, _ = dense_synthetic(50, seed=22)
    assert np.array_equal(a.holdings, b.holdings)
    assert not np.array_equal(a.holdings, c.holdings)


def test_synthetic_shape_and_consistency():
    net, labels = dense_synthetic(64, seed=5)
    assert labels is None
    assert (net.n_banks, net.n_assets) == (64, 13)
    assert np.array_equal(net.total_assets, net.holdings.sum(axis=1))
    leverage = net.total_liabilities / net.total_assets
    assert np.all((leverage >= 0.85) & (leverage <= 0.98))


def test_synthetic_respects_mean_weights():
    # uniform targets (any asset count but 13), high concentration, large n:
    # the empirical mean weight per asset lands within 0.01 of the target
    target = np.full(4, 1.0 / 4)
    net, _ = dense_synthetic(4000, seed=6, assets=4, concentration=40.0)
    got = (net.holdings / net.total_assets[:, None]).mean(axis=0)
    assert np.max(np.abs(got - target)) < 0.01


def test_synthetic_default_weights_renormalized_silently():
    # the defaults are known not to sum to 1; normalizing them is silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net, _ = cf.generate_synthetic(cf.SyntheticConfig(n=2000), 13)
    target = cf.DEFAULT_MEAN_WEIGHTS / cf.DEFAULT_MEAN_WEIGHTS.sum()
    got = (net.holdings / net.total_assets[:, None]).mean(axis=0)
    # heavier tails at concentration 8, so a looser band than the uniform case
    assert np.max(np.abs(got - target)) < 0.02


def test_synthetic_sparsity_leaves_no_empty_banks():
    net, _ = dense_synthetic(300, seed=7, sparsity=0.9)
    links = net.holdings > 0
    assert links.sum() < 0.25 * links.size
    assert np.all(links.sum(axis=1) >= 1)


def test_synthetic_non_13_asset_count():
    net, _ = dense_synthetic(30, seed=8, assets=4)
    assert net.n_assets == 4


def test_synthetic_generation_peaks_in_bounded_memory():
    # on 10k banks without labels the generator peaks at about 1.64 times the
    # holdings' bytes: the gamma draws, which become the weights and then the
    # holdings in place, its four N-vectors, the id column and the sorted copy
    # the network checks; ids built as a tuple of str read 2.24, a weights
    # temporary 2.31 and a holdings temporary 2.64
    cf.generate_synthetic(cf.SyntheticConfig(n=10), 1)   # numpy.random loads outside
    tracemalloc.start()
    try:
        net, _ = cf.generate_synthetic(cf.SyntheticConfig(n=10_000), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * net.holdings.nbytes


def test_preshock_failures_are_never_labels():
    # leverage up to 1.5 leaves banks insolvent before the shock: they fail in
    # round 0, and only a bank the shock or a sale fails is labelled
    net, labels = cf.generate_synthetic(cf.SyntheticConfig(
        n=300, lev_low=0.9, lev_high=1.5, label_asset=0, label_p=0.5, label_alpha=0.3,
        label_eta=0.0), 3)
    insolvent = net.total_assets < net.total_liabilities
    labelled = net.mask(labels)
    assert (int(insolvent.sum()), int(labelled.sum())) == (253, 38)
    assert not (insolvent & labelled).any()


LABEL_KEYS = {"label_asset": 0, "label_p": 0.3, "label_alpha": 0.0, "label_eta": 0.0}


def test_synthetic_label_cascade():
    # alpha stays 0 here: dense default books amplify fire sales so hard that
    # any feedback collapses the whole market and leaves no negatives
    params = cf.CascadeParams.single(0, 0.3, 0.0, 0.0)
    net, labels = dense_synthetic(400, seed=9, **LABEL_KEYS)
    result = cf.run_cascade(net, params, cf.stream(0))
    expect = {net.bank_ids[i] for i in np.flatnonzero(result.failed_round >= 1)}
    assert isinstance(labels, frozenset) and labels == expect
    assert 0 < len(labels) < 400
    # at eta > 0 the labels are the failures of the label_seed stream, label_seed 0
    # when absent
    noisy = {**LABEL_KEYS, "label_p": 0.5, "label_eta": 0.3}
    by_seed = {seed: dense_synthetic(400, seed=9, label_seed=seed, **noisy)
               for seed in (0, 1, 2)}
    noisy_params = cf.CascadeParams.single(0, 0.5, 0.0, 0.3)
    for seed, (net, labels) in by_seed.items():
        assert labels == cf.labels_from_cascade(net, noisy_params, cf.stream(seed))
    assert dense_synthetic(400, seed=9, **noisy)[1] == by_seed[0][1]
    assert len({by_seed[seed][1] for seed in (0, 1, 2)}) == 3


def test_synthetic_config_validation():
    for bad in ({"n": 0}, {"n": 5, "assets": 0}):
        with pytest.raises(ValueError, match="need at least one bank and one asset"):
            cf.SyntheticConfig(**bad)
    with pytest.raises(ValueError):
        cf.SyntheticConfig(n=5, sparsity=1.0)
    with pytest.raises(ValueError, match="need 0 <= lev_low <= lev_high"):
        cf.SyntheticConfig(n=5, lev_low=0.9, lev_high=0.8)
    for bad in ({"concentration": 0.0}, {"concentration": -1.0}, {"median": -5.0},
                {"median": float("nan")}):
        with pytest.raises(ValueError, match="must be positive"):
            cf.SyntheticConfig(n=5, **bad)
    with pytest.raises(ValueError, match="sigma must be non-negative"):
        cf.SyntheticConfig(n=5, sigma=-3.0)
    # the label keys: all four or none, label_seed only with them
    needs = re.escape("label cascade needs ['label_alpha', 'label_asset', 'label_eta', "
                      "'label_p']")
    for key in LABEL_KEYS:
        with pytest.raises(ValueError, match=needs):
            cf.SyntheticConfig(n=5, **{k: v for k, v in LABEL_KEYS.items() if k != key})
    for seed in (0, 2):
        with pytest.raises(ValueError, match=needs):
            cf.SyntheticConfig(n=5, label_seed=seed)
    cf.SyntheticConfig(n=5, label_seed=0, **LABEL_KEYS)
    with pytest.raises(ValueError, match=re.escape("label_asset 4 out of range (4 assets)")):
        cf.SyntheticConfig(n=5, assets=4, **{**LABEL_KEYS, "label_asset": 4})
    with pytest.raises(ValueError, match=re.escape("label_asset -1 out of range (13 assets)")):
        cf.SyntheticConfig(n=5, **{**LABEL_KEYS, "label_asset": -1})
    with pytest.raises(ValueError, match="label_seed must be non-negative"):
        cf.SyntheticConfig(n=5, label_seed=-1, **LABEL_KEYS)
    with pytest.raises(ValueError, match=re.escape("label_p must be in [0, 1], got 1.5")):
        cf.SyntheticConfig(n=5, **{**LABEL_KEYS, "label_p": 1.5})
