"""Tests for the CSV column store used by the command-line artifacts."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from contestlab._tables import _CHUNK_ROWS, _format_cell, read_csv_columns, write_csv
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
