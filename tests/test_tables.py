"""Tests for the CSV column store used by the command-line artifacts."""

from __future__ import annotations

import csv
import itertools

import numpy as np
import pytest

import contestlab._tables as tables
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


def low_cardinality_columns(rng, n):
    """Columns of few distinct values, one a little under n/8 and one over."""
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.1])
    under, over = n // 8 - 3, n // 8 + 3
    return {
        "special": rng.choice(special, n),
        "f32": rng.choice(special, n).astype(np.float32),
        "flag": rng.random(n) < 0.3,
        "i64": rng.choice(np.array([-2**63, -1, 0, 7, 2**63 - 1]), n),
        "u64": rng.choice(np.array([0, 2**63, 2**64 - 1], dtype=np.uint64), n),
        "i8": rng.integers(-3, 3, n, dtype=np.int8),
        "strided": rng.choice(special, 2 * n)[::2],
        "under": rng.permutation(np.arange(n) % under) * 0.5 - 1.0,
        "over": rng.permutation(np.arange(n) % over) * 0.5 - 1.0,
    }


def test_low_cardinality_bytes_match_the_rowwise_writer(tmp_path, rng):
    n = 3 * _CHUNK_ROWS + 5
    cols = low_cardinality_columns(rng, n)
    assert np.unique(cols["under"]).size * 8 <= n < np.unique(cols["over"]).size * 8
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_csv(fast, cols)
    rowwise_csv(slow, cols)
    assert fast.read_bytes() == slow.read_bytes()


def test_each_distinct_value_is_formatted_once(tmp_path, rng, monkeypatch):
    n = 3 * _CHUNK_ROWS + 5
    formatted = []
    format_column = tables._format_column
    monkeypatch.setattr(tables, "_format_column",
                        lambda col: formatted.append(col.size) or format_column(col))
    for name, col in low_cardinality_columns(rng, n).items():
        formatted.clear()
        write_csv(tmp_path / "t.csv", {name: col})
        # distinct bit patterns: 0.0 and -0.0 are two values
        want = n if name == "over" else np.unique(col.view(f"u{col.itemsize}")).size
        assert sum(formatted) == want, name


def two_table_columns(rng, n):
    """Mixed columns for two tables: shared and unshared, low and high cardinality."""
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1])
    return {
        "id": np.arange(n, dtype=np.int64),
        "u64": rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True),
        "flag": rng.random(n) < 0.4,
        "special": rng.choice(special, n),
        "x": rng.normal(size=n),
        "text": np.array([f"a,{k % 5}" if k % 3 else f'q"{k}' for k in range(n)]),
        "only_a": 10.0 ** rng.uniform(-300, 300, n),
        "only_b": rng.integers(-3, 3, n, dtype=np.int8),
    }


def test_two_tables_match_one_table_writes(tmp_path, rng, monkeypatch):
    n = 2 * _CHUNK_ROWS + 77    # three chunks, the last one short
    cols = two_table_columns(rng, n)
    order_a = ("id", "text", "x", "special", "only_a", "flag", "u64")
    order_b = ("u64", "only_b", "x", "id", "special", "flag", "text")
    formatted = []
    format_column = tables._format_column
    monkeypatch.setattr(tables, "_format_column",
                        lambda col: formatted.append(col.size) or format_column(col))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    tables._write_tables(cols, [(a, order_a), (b, order_b)])
    together = sum(formatted)

    for path, order in ((a, order_a), (b, order_b)):
        alone, slow = tmp_path / "alone.csv", tmp_path / "slow.csv"
        write_csv(alone, cols, order=order)
        rowwise_csv(slow, {name: cols[name] for name in order})
        assert path.read_bytes() == alone.read_bytes() == slow.read_bytes(), order
    # a shared column is formatted once for both tables, as in a one-table
    # write of every column
    formatted.clear()
    write_csv(tmp_path / "all.csv", cols)
    assert together == sum(formatted)


def test_two_tables_reject_what_one_table_rejects(tmp_path):
    cols = {"a": np.array([1, 2]), "b": np.array([3, 4]), "c": np.array([5])}
    first = (tmp_path / "x.csv", ("a",))
    with pytest.raises(DomainError, match="missing"):
        tables._write_tables(cols, [first, (tmp_path / "y.csv", ("b", "d"))])
    with pytest.raises(DomainError, match="ragged"):
        tables._write_tables(cols, [first, (tmp_path / "y.csv", ("b", "c"))])


def test_a_table_of_no_columns_has_no_rows(tmp_path):
    cols = {"a": np.arange(5)}
    empty, full, alone = tmp_path / "e.csv", tmp_path / "f.csv", tmp_path / "alone.csv"
    tables._write_tables(cols, [(empty, ()), (full, ("a",))])
    write_csv(alone, cols, order=())
    assert empty.read_bytes() == alone.read_bytes() == b"\n"
    assert full.read_text().splitlines() == ["a", "0", "1", "2", "3", "4"]


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


@pytest.mark.parametrize("names", [("step",), ("score",), ()], ids=["step", "score", "none"])
@pytest.mark.parametrize("bad_row, fields", [("4,4.0", 2), ("4,4.0,9,9", 4), ('4,"4.0,9"', 2)],
                         ids=["short", "long", "quoted-comma"])
def test_ragged_row_rejected_when_its_bad_field_is_unread(tmp_path, bad_row, fields, names):
    # the bad field is in column n, which no subset reads; a quoted comma
    # gives the line the header's comma count but one field less
    path = tmp_path / "ragged.csv"
    path.write_text(f"step,score,n\n1,1.0,1\n2,2.0,2\n{bad_row}\n5,5.0,5\n")
    with pytest.raises(DomainError, match=rf"ragged\.csv: line 4 has {fields} fields"):
        read_csv_columns(path, names)


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
    "uint64-beside-text": "u,name,x\n18446744073709551615,a,1.5\n1,b,2\n",
    "quoted-comma": 'i,name,x\n1,"a,b",2.5\n2,c,3.5\n',
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


def assert_subsets_match_the_full_read(path):
    full = read_csv_columns(path)
    header = list(full) + ["absent"]
    for size in range(len(header) + 1):
        for names in itertools.combinations(header, size):
            want = {name: col for name, col in full.items() if name in names}
            assert_same_columns(read_csv_columns(path, names), want)


@pytest.mark.parametrize("body", [*TYPED.values(), *ROWWISE.values()],
                         ids=[*TYPED.keys(), *ROWWISE.keys()])
def test_column_subset_matches_the_full_read(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_bytes(body.encode())
    assert_subsets_match_the_full_read(path)


@pytest.mark.parametrize("first", ["1", "1.5"], ids=["int-column", "float-column"])
def test_column_subset_of_any_later_token_matches_the_full_read(tmp_path, first):
    path = tmp_path / "t.csv"
    for token in TOKENS:
        path.write_text(f"a,b\n{first},1\n{token},2\n")
        assert_subsets_match_the_full_read(path)


def test_header_only_file_gives_empty_int_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("i,x\n")
    back = read_csv_columns(path)
    assert [(k, v.dtype, v.size) for k, v in back.items()] == [
        ("i", np.int64, 0), ("x", np.int64, 0)]


BLANK_LINES = {"inner": "i,x\n1,2.0\n\n3,4.0\n", "trailing": "i,x\n1,2.0\n3,4.0\n\n"}


@pytest.mark.parametrize("body", BLANK_LINES.values(), ids=BLANK_LINES.keys())
def test_blank_line_rejected_with_its_line_number(tmp_path, body):
    path = tmp_path / "blank.csv"
    path.write_text(body)
    line = body.split("\n").index("") + 1
    with pytest.raises(DomainError, match=rf"blank\.csv: line {line} has 0 fields"):
        read_csv_columns(path)


@pytest.mark.parametrize("names", [("i",), ()], ids=["one", "none"])
@pytest.mark.parametrize("body", [*BLANK_LINES.values(), "i\n1\n\n3\n", "i\r\n1\r\n\r\n3\r\n"],
                         ids=[*BLANK_LINES.keys(), "one-column", "one-column-crlf"])
def test_blank_line_rejected_under_a_column_subset(tmp_path, body, names):
    path = tmp_path / "blank.csv"
    path.write_bytes(body.encode())
    line = body.replace("\r", "").split("\n").index("") + 1
    with pytest.raises(DomainError, match=rf"blank\.csv: line {line} has 0 fields"):
        read_csv_columns(path, names)


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
    for back in (read_csv_columns(path)["u"], read_csv_columns(path, ["u"])["u"]):
        assert back.dtype == np.uint64
        np.testing.assert_array_equal(back, u)


def test_integers_of_both_signs_beyond_int64_read_as_floats(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(f"x\n-1\n{2**64 - 1}\n")
    back = read_csv_columns(path)["x"]
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, [-1.0, 2.0**64])
