"""Deterministic CSV and JSON emission: fixed formatting, atomic writes."""

from __future__ import annotations

import json
import os
import secrets
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

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


class _RowEnd:
    """Type of the marker write_csv places after each row's cells."""


_ROW_END = (_RowEnd(),)


def _conversion(kinds: set[type]) -> str | None:
    """The one %-conversion that prints cells of all these types as
    format_value does, or None if there is none."""
    specs = {
        None if issubclass(kind, bool) else f"%{FLOAT_FORMAT}" if issubclass(kind, float) else "%s"
        for kind in kinds
    }
    return specs.pop() if len(specs) == 1 else None


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Header plus one line per row, each cell as format_value prints it.

    The rows go through one %-template per table, built from the cell types
    seen in each column: %.12g for floats (numpy float64 included), %s for
    ints and strings. A bool column, or a column whose types need different
    conversions, makes the table format each cell with format_value instead:
    under %s the floats below an int would print their repr digits, and
    under %.12g an int of 1e12 or more would print as 1e+12.

    Raises ValueError unless every row has one cell per header column.
    """
    width = len(header)
    # One flat list: each row's cells, then a marker. No row outlives this
    # line, so a large table leaves the garbage collector nothing to scan.
    cells = list(chain.from_iterable(chain.from_iterable(zip(rows, repeat(_ROW_END)))))
    n_rows = len(cells) // (width + 1)
    ends = set(map(type, cells[width :: width + 1]))
    del cells[width :: width + 1]
    columns = [set(map(type, cells[j::width])) for j in range(width)]
    if ends - {_RowEnd} or any(_RowEnd in kinds for kinds in columns):
        raise ValueError(f"{path.name}: every row needs {width} cells, one per header column")
    specs = [_conversion(kinds) for kinds in columns]
    if None in specs:
        cells = list(map(format_value, cells))
        specs = ["%s"] * width
    line = ",".join(specs) + "\n"
    write_text_atomic(path, ",".join(header) + "\n" + (line * n_rows) % tuple(cells))


def write_json(path: Path, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
