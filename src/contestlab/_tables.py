"""Column-table CSV helpers shared by the simulator and the CLI.

Floats are written with ``repr(float(x))`` so a value survives a
write/read round trip bit-for-bit; replayed runs must produce
byte-identical files.
"""

from __future__ import annotations

import csv
from collections.abc import Mapping, Sequence

import numpy as np

from .errors import DomainError

_CHUNK_ROWS = 8192   # rows formatted per batch; bounds the memory of a write


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _format_column(col: np.ndarray):
    """The cells of one column as strings, each as ``_format_cell`` writes it."""
    kind = col.dtype.kind if col.ndim == 1 else "O"
    if kind == "f":
        return map(repr, col.astype(float, copy=False).tolist())
    if kind in "iu":
        return map(str, col.tolist())
    if kind == "b":
        return map(str, col.astype(np.uint8).tolist())
    return map(_format_cell, col)


def write_csv(path, columns: Mapping[str, np.ndarray], order: Sequence[str] | None = None) -> None:
    """Write equal-length columns as CSV with a fixed header order."""
    names = list(order) if order is not None else list(columns)
    missing = [n for n in names if n not in columns]
    if missing:
        raise DomainError(f"missing columns for CSV export: {missing}")
    arrays = [np.asarray(columns[n]) for n in names]
    lengths = {a.shape[0] for a in arrays}
    if len(lengths) > 1:
        raise DomainError(f"ragged columns for CSV export: lengths {sorted(lengths)}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for start in range(0, arrays[0].shape[0] if arrays else 0, _CHUNK_ROWS):
            chunk = slice(start, start + _CHUNK_ROWS)
            writer.writerows(zip(*(_format_column(a[chunk]) for a in arrays)))


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Read a CSV into named arrays; integer-looking columns become int64.

    Every row must have as many fields as the header.
    """
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
        try:
            out[name] = np.asarray([int(v) for v in raw], dtype=np.int64)
            continue
        except ValueError:
            pass
        try:
            out[name] = np.asarray([float(v) for v in raw], dtype=float)
        except ValueError:
            out[name] = np.asarray(raw, dtype=object)
    return out
