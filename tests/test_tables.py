"""Tests for the CSV column store used by the command-line artifacts."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from contestlab._tables import (
    _CHUNK_ROWS,
    _format_cell,
    _read_rowwise,
    _read_typed,
    read_csv_columns,
    write_csv,
)
from contestlab.errors import DomainError


def rowwise_csv(path, columns) -> None:
    """Reference writer: one ``_format_cell`` call per cell, row by row."""
    arrays = list(columns.values())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns))
        for i in range(arrays[0].shape[0]):
            writer.writerow([_format_cell(a[i]) for a in arrays])


def test_round_trip_preserves_dtypes_and_values(tmp_path, rng):
    path = tmp_path / "t.csv"
    cols = {
        "idx": np.arange(5, dtype=np.int64),
        "flag": np.array([True, False, True, False, True]),
        "x": rng.normal(size=5),
    }
    write_csv(path, cols)
    back = read_csv_columns(path)
    assert back["idx"].dtype == np.int64
    np.testing.assert_array_equal(back["idx"], cols["idx"])
    np.testing.assert_array_equal(back["flag"], cols["flag"].astype(np.int64))
    # floats are written with repr, so the round trip is exact
    np.testing.assert_array_equal(back["x"], cols["x"])


def test_bytes_match_the_rowwise_writer(tmp_path, rng):
    n = 2 * _CHUNK_ROWS + 123
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2e-308,
                        1e-300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3])
    floats = 10.0 ** rng.uniform(-300, 300, n) * rng.choice([-1.0, 1.0], n)
    floats[: special.size] = special
    cols = {
        "i64": rng.integers(-2**62, 2**62, n),
        "f64": floats,
        "f32": rng.normal(size=n).astype(np.float32),
        "i8": rng.integers(-128, 128, n, dtype=np.int8),
        "u64": rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True),
        "flag": rng.random(n) < 0.5,
        "text": np.array([f"a,{k}" if k % 3 else f'q"{k}' for k in range(n)]),
        "odd_text": np.array(["", " lead", "a\nb", "tail ", "c\r\nd", "", "x"] * (n // 7)
                             + ["y"] * (n % 7), dtype=object),
        "strided": rng.normal(size=2 * n)[::2],
    }
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_csv(fast, cols)
    rowwise_csv(slow, cols)
    assert fast.read_bytes() == slow.read_bytes()


def test_column_order_is_respected(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"b": np.array([1]), "a": np.array([2])}, order=("a", "b"))
    assert path.read_text().splitlines()[0] == "a,b"


def test_missing_order_column_rejected(tmp_path):
    with pytest.raises(DomainError):
        write_csv(tmp_path / "t.csv", {"a": np.array([1])}, order=("a", "b"))


def test_ragged_columns_rejected(tmp_path):
    with pytest.raises(DomainError):
        write_csv(tmp_path / "t.csv",
                  {"a": np.array([1, 2]), "b": np.array([1])})


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DomainError):
        read_csv_columns(path)


@pytest.mark.parametrize("header", ["a,,b", ",a", ""], ids=["inner", "first", "blank"])
def test_unnamed_header_column_rejected(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n1,2,3\n")
    with pytest.raises(DomainError, match=r"bad\.csv: malformed CSV header"):
        read_csv_columns(path)


@pytest.mark.parametrize("bad_row", ["4", "4,4.0,9"], ids=["short", "long"])
def test_ragged_rows_rejected(tmp_path, bad_row):
    path = tmp_path / "ragged.csv"
    path.write_text(f"step,score\n1,1.0\n2,2.0\n{bad_row}\n5,5.0\n")
    with pytest.raises(DomainError, match=r"ragged\.csv: line 4 "):
        read_csv_columns(path)


def test_non_numeric_column_comes_back_as_objects(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("name,v\nfoo,1\nbar,2\n")
    back = read_csv_columns(path)
    assert back["name"].dtype == object
    assert back["v"].dtype == np.int64


@pytest.mark.parametrize("cells", [[""], ["", "b"], [" a"]], ids=["lone-empty", "empty", "space"])
def test_one_text_column_matches_the_rowwise_writer(tmp_path, cells):
    # csv.writer writes a row of one empty field as "" so it is not a blank line
    cols = {"only": np.array(cells * 3, dtype=object)}
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_csv(fast, cols)
    rowwise_csv(slow, cols)
    assert fast.read_bytes() == slow.read_bytes()


def test_header_only_table_matches_the_rowwise_writer(tmp_path):
    cols = {"a,b": np.zeros(0), "c": np.zeros(0, dtype=np.int64)}
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_csv(fast, cols)
    rowwise_csv(slow, cols)
    assert fast.read_bytes() == slow.read_bytes()


def assert_same_columns(got, want):
    assert list(got) == list(want)
    for name, col in want.items():
        assert got[name].dtype == col.dtype, name
        if col.dtype == object:
            assert got[name].tolist() == col.tolist(), name
        else:
            assert got[name].tobytes() == col.tobytes(), name


# files the typed reader parses itself
TYPED = {
    "nan-inf": "i,x\n1,nan\n2,inf\n3,-inf\n4,1.5\n5,-0.0\n",
    "spellings": "i,x\n+1,Infinity\n-2,-NaN\n 3 ,1e400\n007,5e-324\n",
    "crlf": "i,x\r\n1,0.5\r\n2,0.25\r\n",
    "no-final-newline": "i,x\n1,0.5\n2,0.25",
    "one-row": "i,x,y\n1,2.5,3\n",
    "one-column": "x\n0.1\n0.2\n",
    "duplicate-names": "x,x\n1,2.5\n3,4.5\n",
}

# files that fall back to the row-by-row reader
ROWWISE = {
    "hash-field": "i,x\n1,2.0\n#3,4.0\n",
    "quoted-numbers": 'i,x\n"1",2.5\n"2",3.5\n',
    "quoted-later": 'i,x\n1,2.5\n"2",3.5\n',
    "quoted-header": '"i",x\n1,2.5\n',
    "header-only": "i,x\n",
    "int-then-float": "i,x\n1,2\n2.5,3\n3,1e3\n",
    "underscores": "i,x\n1_000,2.5\n2,3.5\n",
    "text-column": "name,x\nfoo,1\nbar,2\n",
    "text-later": "i,x\n1,2.5\n2,foo\n",
    "empty-field": "i,x\n1,\n2,3.5\n",
}


@pytest.mark.parametrize("body", TYPED.values(), ids=TYPED.keys())
def test_typed_reader_matches_rowwise_oracle(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_bytes(body.encode())
    assert _read_typed(path) is not None
    assert_same_columns(read_csv_columns(path), _read_rowwise(path))


@pytest.mark.parametrize("body", ROWWISE.values(), ids=ROWWISE.keys())
def test_fallback_files_read_row_by_row(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_bytes(body.encode())
    assert _read_typed(path) is None
    assert_same_columns(read_csv_columns(path), _read_rowwise(path))


TOKENS = [" ", "1 2", "\u0663", "1e0", "0b1", "1.", ".5", "-.5e-3", "nan", "-0", "+0",
          "1__0", "0x1p3", "iNfInItY", "1e-400", "  7", "7  ", "None", "",
          "9223372036854775807", "-9223372036854775808", "1.7976931348623159e308"]


@pytest.mark.parametrize("first", ["1", "1.5"], ids=["int-column", "float-column"])
def test_any_later_token_reads_as_the_rowwise_oracle(tmp_path, first):
    path = tmp_path / "t.csv"
    for token in TOKENS:
        path.write_text(f"a,b\n{first},1\n{token},2\n")
        assert_same_columns(read_csv_columns(path), _read_rowwise(path))


def test_header_only_file_gives_empty_int_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("i,x\n")
    back = read_csv_columns(path)
    assert [(k, v.dtype, v.size) for k, v in back.items()] == [
        ("i", np.int64, 0), ("x", np.int64, 0)]


@pytest.mark.parametrize("body", ["i,x\n1,2.0\n\n3,4.0\n", "i,x\n1,2.0\n3,4.0\n\n"],
                         ids=["inner", "trailing"])
def test_blank_line_rejected_with_its_line_number(tmp_path, body):
    path = tmp_path / "blank.csv"
    path.write_text(body)
    line = body.split("\n").index("") + 1
    with pytest.raises(DomainError, match=rf"blank\.csv: line {line} has 0 fields"):
        read_csv_columns(path)


def test_written_tables_take_the_typed_path(tmp_path, rng):
    path = tmp_path / "t.csv"
    n = 3 * _CHUNK_ROWS + 5
    cols = {"i": rng.integers(-2**62, 2**62, n), "x": rng.normal(size=n) * 1e5,
            "flag": rng.random(n) < 0.5}
    write_csv(path, cols)
    back = _read_typed(path)
    assert back is not None
    assert_same_columns(back, _read_rowwise(path))
    np.testing.assert_array_equal(back["x"], cols["x"])
    assert all(col.flags.c_contiguous for col in back.values())


def test_integers_beyond_int64_read_as_floats(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("x,i\n1,1\n99999999999999999999,2\n")
    back = read_csv_columns(path)
    assert back["x"].dtype == np.float64 and back["i"].dtype == np.int64
    np.testing.assert_array_equal(back["x"], [1.0, 1e20])


def test_uint64_above_int64_reads_back(tmp_path):
    path = tmp_path / "u.csv"
    u = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    write_csv(path, {"u": u})
    back = read_csv_columns(path)["u"]
    assert back.dtype == np.uint64
    np.testing.assert_array_equal(back, u)


def test_integers_of_both_signs_beyond_int64_read_as_floats(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(f"x\n-1\n{2**64 - 1}\n")
    back = read_csv_columns(path)["x"]
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, [-1.0, 2.0**64])
