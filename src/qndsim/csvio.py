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


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, FLOAT_FORMAT)
    return str(value)


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


def _conversion(kinds: set[type]) -> str | None:
    """The one %-conversion that prints cells of all these types as
    format_value does, or None if there is none."""
    specs = {
        None if issubclass(kind, bool) else f"%{FLOAT_FORMAT}" if issubclass(kind, float) else "%s"
        for kind in kinds
    }
    return specs.pop() if len(specs) == 1 else None


def _typed(column) -> tuple[str | None, list]:
    """A column's cells, with the %-conversion its dtype gives them: %.12g for
    a one-dimensional float array, %s for an integer array or a range; None
    where the cell types decide."""
    if isinstance(column, range):
        return "%s", list(column)
    if not isinstance(column, np.ndarray):
        return None, list(column)
    kind = column.dtype.kind if column.ndim == 1 else None
    # a longdouble's tolist() keeps numpy scalars, which format_value prints by str()
    if kind == "f" and column.dtype.itemsize <= 8:
        return f"%{FLOAT_FORMAT}", column.tolist()
    return ("%s" if kind in ("i", "u") else None), column.tolist()


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Header plus one line per row from one column per header name, each
    cell as format_value prints it.

    ndarray columns go through tolist(), so numpy scalars print as Python's.
    The table goes through one %-template. A float array's dtype gives its
    column %.12g, and an integer array or a range gives %s. Any other column
    (a list, a tuple, a bool, complex or object array) takes its conversion
    from its cell types: %.12g for floats, %s for ints and strings. A bool
    column, or a column whose types need different conversions, is formatted
    cell by cell with format_value instead: under %s the floats below an int
    would print their repr digits, and under %.12g an int of 1e12 or more
    would print as 1e+12.

    Raises ValueError unless there is one column per header name and all
    columns have the same length.
    """
    typed = [_typed(c) for c in columns]
    n_rows, n_cols = (len(typed[0][1]) if typed else 0), len(typed)
    if n_cols != len(header) or any(len(cells) != n_rows for _, cells in typed):
        raise ValueError(
            f"{path.name}: needs {len(header)} columns of equal length, one per header name"
        )
    # row-major cells: column j fills every n_cols-th cell from the j-th
    cells = [None] * (n_rows * n_cols)
    specs = []
    for j, (spec, column) in enumerate(typed):
        if spec is None:
            spec = _conversion(set(map(type, column)))
        if spec is None:
            column = list(map(format_value, column))
            spec = "%s"
        cells[j::n_cols] = column
        specs.append(spec)
    line = ",".join(specs) + "\n"
    write_text_atomic(path, ",".join(header) + "\n" + (line * n_rows) % tuple(cells))


def write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinite value raises ValueError."""
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
