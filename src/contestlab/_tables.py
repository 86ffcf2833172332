"""Column-table CSV helpers shared by the simulator and the CLI.

Every float cell holds the bytes of ``repr(float(x))``, so a value
survives a write/read round trip bit-for-bit and replayed runs produce
byte-identical files.  A float slice of at least ``_MIN_FAST_ROWS``
cells gets those bytes from numpy arithmetic (``_float_cells``) rather
than from one ``repr`` call per cell, and each cell is proved equal to
``repr``'s, not estimated:

- The fast path takes +-0.0 and the x with 1e-4 <= |x| < 1e14, which
  ``repr`` writes positionally.  With E = floor(log10|x|), the product
  p = |x| * 10**(16 - E) is formed exactly as a Dekker two-product
  (10**k is a double for k <= 22) and rounded half-even to the 17-digit
  integer D17, leaving the exact remainder r.  A p outside [1e16, 1e17)
  (a log10 off by one), or within 1.5 of 1e17, goes to ``repr``.
- D16 and D15, the nearest 16- and 15-digit decimals, come from D17's
  last digits and the sign of r, so nothing is rounded twice.  On D17's
  scale a candidate lies j - r from |x|, for an integer j, and half an
  ulp of x is an exact double h: the candidate round-trips when its
  distance is below h and does not when it is above.
- D17 always round-trips: it lies at most 0.5 from p, and h > 0.55.
  The cell is the shortest of D15, D16 and D17 that round-trips, with
  trailing zeros dropped.  Away from powers of two the rounding interval
  is symmetric, so the nearest p-digit decimal round-trips whenever any
  does, and at most one 15-digit decimal fits in it; ``repr`` gives the
  nearest of the shortest decimals, so the pick is ``repr``'s.  A power
  of two in the range has at most 15 significant digits, so D15 is x
  itself and its lopsided interval does not matter.  No pick is
  10**(E+1): that decimal does not round down to x, as the doubles of
  1e-3, 1e-2 and 1e-1 lie above them and 10**j is exact for j >= 0.
- Every other cell goes through ``repr`` one by one, so no output rests
  on an unproven case: nan, +-inf, subnormals, |x| outside the range, a
  16- or 17-digit candidate exactly halfway between two decimals (both
  round-trip, and ``repr`` picks one), and a distance that equals h once
  rounded.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from collections.abc import Collection, Mapping, Sequence
from contextlib import ExitStack

import numpy as np

from .errors import DomainError

_CHUNK_ROWS = 2048   # rows formatted per batch; bounds the memory of a write
_SPECIAL = re.compile(r'[,"\r\n]')   # characters csv.writer may quote a field for
_MIN_FAST_ROWS = 128   # a shorter float slice is quicker one repr call per cell

# 10**k as an exact double, and its Veltkamp split into two 26-bit halves
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_BELOW_1E14 = np.nextafter(1e14, 0.0)


def _character_table() -> np.ndarray:
    """The four ASCII digits of each k < 10**4, then ``.-\\0`` and ``0``, as uint32."""
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    digits[..., 0] = ascii_digits[:, None, None, None]
    digits[..., 1] = ascii_digits[:, None, None]
    digits[..., 2] = ascii_digits[:, None]
    digits[..., 3] = ascii_digits
    extra = np.frombuffer(b".-\x000", np.uint8)
    return np.vstack([digits.reshape(-1, 4), extra]).view(np.uint32).ravel()


def _layout_table() -> tuple[np.ndarray, np.ndarray]:
    """Where each character of ``repr``'s positional text comes from.

    A cell's characters are the 24 bytes of six ``_CHARACTERS`` entries:
    the 17 digits of N (N * 10**(e - 16) is the value) in columns 3-19,
    then ``.``, ``-``, NUL and ``0`` in columns 20-23.  Row (negative,
    e + 4, digits - 1) lists the columns that spell the value with that
    sign, exponent e in [-4, 13] and count of significant digits, padded
    with the NUL column; the second array holds each row's length.
    """
    neg = np.arange(2)[:, None, None, None]
    e = np.arange(-4, 14)[None, :, None, None]
    digits = np.arange(1, 18)[None, None, :, None]
    at = np.arange(24) - neg                    # position after the sign
    whole = np.maximum(e + 1, 1)                # digits before the point
    fraction = np.maximum(digits - e - 1, 1)    # digits after it
    point = e + 4                               # column of the first fraction digit
    table = np.select(
        [at < 0, at < whole, at == whole, at <= whole + fraction],
        [21, np.where(e >= 0, at + 3, 23), 20, point + at - whole - 1],
        22).reshape(-1, 24)
    return table, (table != 22).sum(axis=1)


_CHARACTERS = _character_table()
_LAYOUT, _LAYOUT_LENGTH = _layout_table()


def _float_cells(x: np.ndarray) -> list[bytes]:
    """``repr(v).encode()`` of each v of the float64 vector ``x``, by the module's proof."""
    ax = np.abs(x)
    # clamping moves nan, inf, 0 and every |x| outside the range: those cells are slow
    ax1 = np.fmin(np.fmax(ax, 1e-4), _BELOW_1E14)
    slow = ax1 != ax
    e = np.floor(np.log10(ax1)).astype(np.intp)
    k = 16 - e
    # p = ax1 * 10**k exactly as hi + lo, Dekker's two-product
    b = _POW10.take(k)
    hi = ax1 * b
    c = ax1 * 134217729.0
    ah = c - (c - ax1)
    al = ax1 - ah
    bh = _POW10_HI.take(k)
    bl = _POW10_LO.take(k)
    lo = ah * bh - hi
    lo += ah * bl
    lo += al * bh
    lo += al * bl
    # hi >= 2**53 is an even integer, so rounding lo half-even rounds p
    n17 = np.rint(lo)
    r = lo - n17
    d17 = hi.astype(np.int64)
    d17 += n17.astype(np.int64)
    t = d17 - (r < 0)       # rounding t half up rounds p to 16 or 15 digits
    slow |= (t - 10**16).view(np.uint64) >= 9 * 10**16 - 1    # so D17 < 1e17
    m16 = (t + 5) // 10 * 10
    m15 = (t + 50) // 100 * 100
    h = np.spacing(ax1)
    h *= b
    h *= 0.5
    gap = np.abs((m15 - d17) - r)
    ok15 = gap < h
    unsure = gap == h
    np.abs((m16 - d17) - r, out=gap)
    ok16 = gap < h
    unsure |= gap == h
    unsure |= ok16 & (r == 0) & (m16 - d17 == 5)
    unsure |= ~ok16 & (np.abs(r) == 0.5)
    slow |= unsure & ~ok15

    n = d17
    np.copyto(n, m16, where=ok16)
    np.copyto(n, m15, where=ok15)
    digits = np.where(ok16, 16, 17)
    zero = ax == 0
    n[zero] = 0
    e[zero] = 0
    slow &= ~zero
    groups = np.empty((x.size, 6), np.int64)
    groups[:, 5] = 10**4
    for j in (4, 3, 2, 1):
        n, groups[:, j] = np.divmod(n, 10**4)
    groups[:, 0] = n
    chars = _CHARACTERS.take(groups).view(np.uint8)
    rows = np.flatnonzero(ok15 & ~zero)
    if rows.size:       # a 15-digit pick may end in zeros
        nonzero = chars[rows, 3:20] != ord("0")
        digits[rows] = 17 - nonzero[:, ::-1].argmax(axis=1)
    digits[zero] = 1
    key = np.signbit(x) * (18 * 17) + (e + 4) * 17 + (digits - 1)
    key[slow] = 0
    width = _LAYOUT_LENGTH.take(key).max()
    cols = _LAYOUT[:, :width].take(key, axis=0)
    cols += np.arange(0, chars.size, 24)[:, None]
    cells = chars.ravel().take(cols).view(f"S{width}").ravel().tolist()
    for i in np.flatnonzero(slow).tolist():
        cells[i] = repr(float(x[i])).encode()
    return cells


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
    """The UTF-8 cells of one column as ``csv.writer`` writes ``_format_cell`` of each."""
    kind = col.dtype.kind if col.ndim == 1 else "O"
    if kind == "f":
        values = col.astype(float, copy=False)
        if values.size >= _MIN_FAST_ROWS:
            return _float_cells(values)
        return map(str.encode, map(repr, values.tolist()))
    if kind in "iu":
        return map(b"%d".__mod__, col.tolist())
    if kind == "b":
        return map(b"%d".__mod__, col.astype(np.uint8).tolist())
    return (_csv_cell(_format_cell(v)).encode() for v in col)


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


def _lines(cells, width: int) -> bytes:
    """Rows of formatted cells joined into CSV lines, each ending in a newline."""
    rows = map(b",".join, zip(*cells))
    if width == 1:      # csv.writer quotes a lone empty field, as a blank line is no row
        rows = (row or b'""' for row in rows)
    return b"\n".join(rows) + b"\n"


def write_csv(path, columns: Mapping[str, np.ndarray], order: Sequence[str] | None = None) -> None:
    """Write equal-length columns as CSV with a fixed header order.

    The bytes are those of ``csv.writer`` with ``_format_cell`` per cell;
    whole columns are formatted and joined a chunk of rows at a time, and
    a long column of few distinct values formats each of them once.
    """
    _write_tables(columns, [(path, list(order) if order is not None else list(columns))])


def _write_tables(columns: Mapping[str, np.ndarray],
                  tables: Sequence[tuple[object, Sequence[str]]]) -> None:
    """Write several tables of one column mapping in one pass.

    Each ``(path, order)`` table gets the bytes ``write_csv(path, columns,
    order)`` gives it.  The tables are written side by side a chunk of
    rows at a time, and a column that more than one table holds is
    formatted once per chunk; only those cells are kept, and only for
    their chunk.  Every column named must exist, and all of them must
    have one length.
    """
    held = Counter(name for _, order in tables for name in order)
    names = list(held)
    missing = [n for n in names if n not in columns]
    if missing:
        raise DomainError(f"missing columns for CSV export: {missing}")
    arrays = {n: np.asarray(columns[n]) for n in names}
    lengths = {a.shape[0] for a in arrays.values()}
    if len(lengths) > 1:
        raise DomainError(f"ragged columns for CSV export: lengths {sorted(lengths)}")
    formatters = {n: _column_cells(a) for n, a in arrays.items()}
    shared = [n for n in names if held[n] > 1]
    with ExitStack() as stack:
        files = [(stack.enter_context(open(path, "wb")), order) for path, order in tables]
        for fh, order in files:
            fh.write(_lines([[_csv_cell(str(n)).encode()] for n in order], len(order)))
        for start in range(0, lengths.pop() if lengths else 0, _CHUNK_ROWS):
            chunk = slice(start, start + _CHUNK_ROWS)
            cells = {n: list(formatters[n](chunk)) for n in shared}
            for fh, order in files:
                if order:   # a table of no columns has no rows
                    fh.write(_lines([cells[n] if n in cells else formatters[n](chunk)
                                     for n in order], len(order)))


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
    the header lacks is left out.  Text that is not UTF-8 is an input error.
    """
    names = None if names is None else frozenset(names)
    try:
        typed = _read_typed(path, names)
        return typed if typed is not None else _read_rowwise(path, names)
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x})") from exc


def _picked(header: list[str], names: frozenset[str] | None) -> dict[str, int]:
    """The index of each header name in ``names`` (all if None); the last one wins."""
    index = {name: j for j, name in enumerate(header)}
    return {name: j for name, j in index.items() if names is None or name in names}


def _read_typed(path, names=None) -> dict[str, np.ndarray] | None:
    """The picked columns of a plain numeric CSV, or None if it is not one."""
    with open(path, newline="", encoding="utf-8") as fh:
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
    with open(path, newline="", encoding="utf-8") as fh:
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
