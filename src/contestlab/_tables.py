"""Column-table CSV helpers shared by the simulator and the CLI.

Floats are written with ``repr(float(x))`` so a value survives a
write/read round trip bit-for-bit; replayed runs must produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import re
from collections.abc import Collection, Mapping, Sequence

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


def _column_cells(col: np.ndarray):
    """A function from a row slice of ``col`` to its formatted cells there.

    A numeric or bool column of more than one chunk with at most n/8
    distinct values formats each distinct value once, and a slice looks
    its cells up among them.  Values are told apart by their bit
    pattern, so 0.0 and -0.0 keep their own spellings.  A shorter column
    saves little, and its sort would add 0.4 MB of resident numpy code
    to a process that writes only small tables.
    """
    n = col.shape[0]
    if col.ndim == 1 and col.dtype.kind in "fiub" and col.itemsize <= 8 and n > _CHUNK_ROWS:
        bits = col.view(f"u{col.itemsize}")
        srt = np.sort(bits)     # a sort, not np.unique, which hashes and is slower here
        keys = srt[np.insert(srt[1:] != srt[:-1], 0, True)]
        if 8 * keys.size <= n:
            cells = np.array(list(_format_column(keys.view(col.dtype))), dtype=object)
            return lambda rows: cells[np.searchsorted(keys, bits[rows])]
    return lambda rows: _format_column(col[rows])


def _lines(cells, width: int) -> str:
    """Rows of formatted cells joined into CSV lines, each ending in a newline."""
    rows = map(",".join, zip(*cells))
    if width == 1:      # csv.writer quotes a lone empty field, as a blank line is no row
        rows = (row or '""' for row in rows)
    return "\n".join(rows) + "\n"


def write_csv(path, columns: Mapping[str, np.ndarray], order: Sequence[str] | None = None) -> None:
    """Write equal-length columns as CSV with a fixed header order.

    The bytes are those of ``csv.writer`` with ``_format_cell`` per cell;
    whole columns are formatted and joined a chunk of rows at a time, and
    a long column of few distinct values formats each of them once.
    """
    names = list(order) if order is not None else list(columns)
    missing = [n for n in names if n not in columns]
    if missing:
        raise DomainError(f"missing columns for CSV export: {missing}")
    arrays = [np.asarray(columns[n]) for n in names]
    lengths = {a.shape[0] for a in arrays}
    if len(lengths) > 1:
        raise DomainError(f"ragged columns for CSV export: lengths {sorted(lengths)}")
    formatters = [_column_cells(a) for a in arrays]
    with open(path, "w", newline="") as fh:
        fh.write(_lines([[_csv_cell(str(n))] for n in names], len(names)))
        for start in range(0, arrays[0].shape[0] if arrays else 0, _CHUNK_ROWS):
            chunk = slice(start, start + _CHUNK_ROWS)
            fh.write(_lines([cells(chunk) for cells in formatters], len(arrays)))


def read_csv_columns(path, names: Collection[str] | None = None) -> dict[str, np.ndarray]:
    """Read a CSV into named arrays; integer columns become int64 or uint64.

    Each column's type comes from the first data row (int64 if ``int``
    parses it, else float), and one typed ``np.loadtxt`` parses the
    columns read.  When that parse fails, or some line is blank or has a
    ``"`` or a field count other than the header's, the file is read
    again row by row, which defines the result: text columns, blank
    lines, quoted fields and columns that turn out not to be all-int or
    all-float take that path.  So does an integer column with a value
    beyond int64: it comes back as uint64 when every value lies in
    [0, 2**64), so a written uint64 column reads back exactly, and as
    float64 otherwise.  Every row must have as many fields as the
    header.  A name the header repeats gives its last column.

    ``names``, if given, picks the columns to return: those of the
    header's names that it holds, in header order, each equal in dtype
    and bytes to the full read's column.  Only those are converted, but
    every line is still checked, so a file gives the same error, and
    falls back to the row-wise reader, as under a full read.  A name
    the header lacks is left out.
    """
    names = None if names is None else frozenset(names)
    typed = _read_typed(path, names)
    return typed if typed is not None else _read_rowwise(path, names)


def _picked(header: list[str], names: frozenset[str] | None) -> dict[str, int]:
    """The index of each header name in ``names`` (all if None); the last one wins."""
    index = {name: j for j, name in enumerate(header)}
    return {name: j for name, j in index.items() if names is None or name in names}


def _read_typed(path, names=None) -> dict[str, np.ndarray] | None:
    """The picked columns of a plain numeric CSV, or None if it is not one."""
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
        picked = _picked(header, names)
        kinds = []
        for j in picked.values():
            try:
                int(cells[j])
                kinds.append(np.int64)
            except ValueError:
                try:
                    float(cells[j])
                except ValueError:
                    return None
                kinds.append(np.float64)
        # loadtxt's usecols lets short and long rows through and it skips
        # blank lines, so each line is checked here; a bad one is left to
        # the row-wise reader, which raises for it
        fh.seek(start)
        commas, rows = len(header) - 1, 0
        for line in fh:
            if line[0] in "\r\n" or line.count(",") != commas or '"' in line:
                return None
            rows += 1
        if not picked:
            return {}
        dtype = np.dtype([(f"f{k}", kind) for k, kind in enumerate(kinds)])
        fh.seek(start)
        try:
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                               usecols=list(picked.values()))
        except (ValueError, OverflowError):
            return None
        if table.shape[0] != rows:
            return None
    return {name: np.ascontiguousarray(table[f"f{k}"]) for k, name in enumerate(picked)}


def _read_rowwise(path, names=None) -> dict[str, np.ndarray]:
    """Row-by-row reader: csv parsing, then int, float or text per picked column."""
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
    for name, j in _picked(header, names).items():
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
