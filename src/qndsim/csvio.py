"""Deterministic CSV and JSON emission: fixed formatting, atomic writes."""

from __future__ import annotations

import json
import os
import secrets
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


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
