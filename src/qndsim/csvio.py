"""Deterministic CSV and JSON emission: fixed formatting, atomic writes."""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Sequence

import numpy as np

# 12 significant digits keep round-trips bit-stable for golden files.
FLOAT_FORMAT = ".12g"


def write_text_atomic(path: Path, text: str) -> None:
    """Write through a sibling temporary file and rename it into place.

    The temporary file is created with mode 0o666, so the process umask
    sets the permissions of the emitted file as it would for open().
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _typed(column) -> tuple[str, list]:
    """A column's %-conversion, from its dtype alone, and its cells as
    Python scalars; TypeError for a column that write_csv does not take."""
    if isinstance(column, range):
        return "%s", list(column)
    if not isinstance(column, np.ndarray) or column.ndim != 1:
        what = f"a {column.ndim}-d array" if isinstance(column, np.ndarray) else type(column)
        raise TypeError(f"a CSV column is a range or a 1-d array, not {what}")
    kind = column.dtype.kind
    if kind == "f" and column.dtype.itemsize <= 8:
        return f"%{FLOAT_FORMAT}", column.tolist()
    if kind in ("i", "u", "U"):
        return "%s", column.tolist()
    if kind == "b":
        return "%s", np.where(column, "true", "false").tolist()
    raise TypeError(f"a CSV column is a bool, integer, float or str array, not {column.dtype}")


def write_csv(path: Path, header: Sequence[str], columns: Sequence[range | np.ndarray]) -> None:
    """Header plus one line per row from one column per header name.

    Each column is a range or a one-dimensional numpy array, and its dtype
    alone gives every cell's conversion: floats up to float64 print as
    %.12g, integer and str arrays and ranges as %s (every digit, where %.12g
    would print 10**12 as 1e+12), and bools as true or false. The table goes
    through one %-template.

    Raises TypeError for any other column, and ValueError unless there is
    one column per header name and all columns have the same length; either
    way before anything is written.
    """
    typed = [_typed(c) for c in columns]
    n_rows, n_cols = (len(typed[0][1]) if typed else 0), len(typed)
    if n_cols != len(header) or any(len(cells) != n_rows for _, cells in typed):
        raise ValueError(
            f"{path.name}: needs {len(header)} columns of equal length, one per header name"
        )
    # row-major cells: column j fills every n_cols-th cell from the j-th
    cells = [None] * (n_rows * n_cols)
    for j, (_, column) in enumerate(typed):
        cells[j::n_cols] = column
    line = ",".join(spec for spec, _ in typed) + "\n"
    write_text_atomic(path, ",".join(header) + "\n" + (line * n_rows) % tuple(cells))


def write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinite value raises ValueError."""
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
