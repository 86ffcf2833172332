"""Column-table CSV helpers shared by the simulator and the CLI.

Floats are written with ``repr(float(x))`` so a value survives a
write/read round trip bit-for-bit; replayed runs must produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import re
from collections.abc import Mapping, Sequence

import numpy as np

from .errors import DomainError

_CHUNK_ROWS = 8192   # rows formatted per batch; bounds the memory of a write
_SPECIAL = re.compile(r'[,"\r\n]')   # characters csv.writer may quote a field for


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` (QUOTE_MINIMAL) writes it among other fields."""
    if not _SPECIAL.search(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _format_column(col: np.ndarray):
    """The cells of one column as ``csv.writer`` writes ``_format_cell`` of each."""
    kind = col.dtype.kind if col.ndim == 1 else "O"
    if kind == "f":
        return map(repr, col.astype(float, copy=False).tolist())
    if kind in "iu":
        return map(str, col.tolist())
    if kind == "b":
        return map(str, col.astype(np.uint8).tolist())
    return map(_csv_cell, map(_format_cell, col))


def _lines(cells, width: int) -> str:
    """Rows of formatted cells joined into CSV lines, each ending in a newline."""
    rows = map(",".join, zip(*cells))
    if width == 1:      # csv.writer quotes a lone empty field, as a blank line is no row
        rows = (row or '""' for row in rows)
    return "\n".join(rows) + "\n"


def write_csv(path, columns: Mapping[str, np.ndarray], order: Sequence[str] | None = None) -> None:
    """Write equal-length columns as CSV with a fixed header order.

    The bytes are those of ``csv.writer`` with ``_format_cell`` per cell;
    whole columns are formatted and joined a chunk of rows at a time.
    """
    names = list(order) if order is not None else list(columns)
    missing = [n for n in names if n not in columns]
    if missing:
        raise DomainError(f"missing columns for CSV export: {missing}")
    arrays = [np.asarray(columns[n]) for n in names]
    lengths = {a.shape[0] for a in arrays}
    if len(lengths) > 1:
        raise DomainError(f"ragged columns for CSV export: lengths {sorted(lengths)}")
    with open(path, "w", newline="") as fh:
        fh.write(_lines([[_csv_cell(str(n))] for n in names], len(names)))
        for start in range(0, arrays[0].shape[0] if arrays else 0, _CHUNK_ROWS):
            chunk = slice(start, start + _CHUNK_ROWS)
            fh.write(_lines([_format_column(a[chunk]) for a in arrays], len(arrays)))


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Read a CSV into named arrays; integer columns become int64 or uint64.

    Each column's type comes from the first data row (int64 if ``int``
    parses it, else float), and one typed ``np.loadtxt`` parses the whole
    file.  When that parse fails or sees fewer rows than the file has
    data lines, the file is read again row by row, which defines the
    result: text columns, blank lines, quoted fields and columns that
    turn out not to be all-int or all-float take that path.  So does an
    integer column with a value beyond int64: it comes back as uint64
    when every value lies in [0, 2**64), so a written uint64 column reads
    back exactly, and as float64 otherwise.  Every row must have as many
    fields as the header.
    """
    typed = _read_typed(path)
    return typed if typed is not None else _read_rowwise(path)


def _read_typed(path) -> dict[str, np.ndarray] | None:
    """The columns of a plain numeric CSV, or None if it is not one."""
    with open(path, newline="") as fh:
        header_line = fh.readline()
        start = fh.tell()
        first = fh.readline()
        if '"' in header_line or not header_line.endswith("\n"):
            return None
        header = header_line.rstrip("\r\n").split(",")
        cells = first.rstrip("\r\n").split(",")
        if not all(header) or len(cells) != len(header):
            return None
        kinds = []
        for cell in cells:
            try:
                int(cell)
                kinds.append(np.int64)
            except ValueError:
                try:
                    float(cell)
                except ValueError:
                    return None
                kinds.append(np.float64)
        dtype = np.dtype([(f"f{j}", kind) for j, kind in enumerate(kinds)])
        fh.seek(start)
        try:
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, OverflowError):
            return None
        fh.seek(start)
        if table.shape[0] != sum(1 for _ in fh):   # loadtxt skips blank lines
            return None
    return {name: np.ascontiguousarray(table[f"f{j}"]) for j, name in enumerate(header)}


def _read_rowwise(path) -> dict[str, np.ndarray]:
    """Row-by-row reader: csv parsing, then int, float or text per column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty CSV") from None
        if not header or any(not name for name in header):
            raise DomainError(f"{path}: malformed CSV header {header!r}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise DomainError(f"{path}: line {reader.line_num} has {len(row)} "
                                  f"fields, the header has {len(header)}")
            rows.append(row)
    out: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        raw = [row[j] for row in rows]
        col = _int_column(raw)
        if col is None:
            try:
                col = np.asarray([float(v) for v in raw], dtype=float)
            except ValueError:
                col = np.asarray(raw, dtype=object)
        out[name] = col
    return out


def _int_column(raw: list[str]) -> np.ndarray | None:
    """int64, else uint64, of all-integer cells; None if neither holds them."""
    try:
        ints = [int(v) for v in raw]
    except ValueError:
        return None
    for dtype in (np.int64, np.uint64):
        try:
            return np.asarray(ints, dtype=dtype)
        except OverflowError:   # beyond this dtype's range
            pass
    return None
