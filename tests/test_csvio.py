import math
import os
import stat

import numpy as np
import pytest

from qndsim.csvio import _conversion, format_value, write_csv, write_json


def per_cell_reference(header, rows) -> str:
    """The bytes write_csv must give: format_value on every cell."""
    lines = [",".join(header), *(",".join(map(format_value, row)) for row in rows)]
    return "\n".join(lines) + "\n"


TABLES = {
    # repr(3 * 1.77) is 5.3100000000000005; .12g gives 5.31
    "int_then_repr_floats": [(1,), (1.77,), (3 * 1.77,)],
    # %.12g would print 1e+12; str gives every digit
    "float_then_int_1e12": [(0.5,), (10**12,), (123_456_789_012_345,)],
    "python_and_numpy_bools": [(True, np.bool_(True)), (False, np.bool_(False))],
    "numpy_scalars": [
        (np.float64(0.1) * 3, np.int64(10**13)),
        (np.float64(-2.5e-7), np.int64(-7)),
    ],
    "str_cells": [("gain", 0.8, 1), ("gamma_MHz", 1.77, 2)],
    "special_floats": [
        (math.nan, math.inf, -math.inf),
        (-0.0, 5e-324, 2.2250738585072014e-308),
        (1.2e14, 1.2e-5, 123456789012.5),
    ],
    "list_rows": [["gain"], ["gamma"]],
    "zero_rows": [],
}


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002])
def test_emitted_file_mode_follows_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_csv(tmp_path / "table.csv", ["a"], [(1,)])
        write_json(tmp_path / "report.json", {"a": 1})
    finally:
        os.umask(old)
    for name in ("table.csv", "report.json"):
        mode = stat.S_IMODE((tmp_path / name).stat().st_mode)
        assert mode == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "table.csv"]


def test_bools_spelled_lowercase(tmp_path):
    write_csv(tmp_path / "flags.csv", ["passed"], [(True,), (False,)])
    assert (tmp_path / "flags.csv").read_text() == "passed\ntrue\nfalse\n"


@pytest.mark.parametrize("rows", TABLES.values(), ids=TABLES)
def test_matches_per_cell_reference(tmp_path, rows):
    header = [f"c{j}" for j in range(len(rows[0]) if rows else 2)]
    write_csv(tmp_path / "table.csv", header, iter(rows))
    assert (tmp_path / "table.csv").read_text() == per_cell_reference(header, rows)


@pytest.mark.parametrize(
    "kinds, conversion",
    [
        ({float, np.float64}, "%.12g"),
        ({int, str, np.int64, np.bool_}, "%s"),
        ({int, float}, None),
        ({bool}, None),
        ({bool, int}, None),
    ],
)
def test_template_only_where_bytes_match(kinds, conversion):
    assert _conversion(kinds) == conversion


@pytest.mark.parametrize(
    "rows",
    [
        [(1.5,), (2.5, 3)],
        [(1.5, 2.5, 3), ()],
        [(1,), (), (2, 3)],
        # five cells put this row's marker where a third row's would sit
        [(1.5, 2.5), (1, 2, 3, 4, 5)],
    ],
)
def test_rows_must_match_header_width(tmp_path, rows):
    with pytest.raises(ValueError, match="2 cells"):
        write_csv(tmp_path / "table.csv", ["a", "b"], rows)
