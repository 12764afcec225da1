import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qndsim.csvio import _conversion, format_value, write_csv, write_json

from test_domains import DETERMINISTIC


def per_cell_reference(header, columns) -> str:
    """The bytes write_csv must give: format_value on every cell, with
    ndarray columns read through tolist()."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    lines = [",".join(header), *(",".join(map(format_value, row)) for row in zip(*cells))]
    return "\n".join(lines) + "\n"


TABLES = {
    # repr(3 * 1.77) is 5.3100000000000005; .12g gives 5.31
    "int_then_repr_floats": [[1, 1.77, 3 * 1.77]],
    # %.12g would print 1e+12; str gives every digit
    "float_then_int_1e12": [[0.5, 10**12, 123_456_789_012_345]],
    "python_and_numpy_bools": [[True, False], [np.bool_(True), np.bool_(False)]],
    "numpy_scalars": [
        [np.float64(0.1) * 3, np.float64(-2.5e-7)],
        [np.int64(10**13), np.int64(-7)],
    ],
    "numpy_arrays": [
        np.array([0.1 * 3, -2.5e-7]),
        np.array([10**13, -7]),
        np.array([True, False]),
    ],
    "str_cells": [["gain", "gamma_MHz"], [0.8, 1.77], [1, 2]],
    # only the mixed middle column leaves the %-template
    "one_mixed_column": [[1.0, 3 * 1.77], [1, 3 * 1.77], ["a", "b"]],
    "special_floats": [
        [math.nan, -0.0, 1.2e14],
        [math.inf, 5e-324, 1.2e-5],
        [-math.inf, 2.2250738585072014e-308, 123456789012.5],
    ],
    "tuple_and_range_columns": [("gain", "gamma"), range(2)],
    "zero_rows": [[], np.array([])],
    # the dtype picks the conversion of these array columns
    "float32_arrays": [
        np.array([0.1, -2.5e-7, 3e38, 1.17549435e-38], dtype=np.float32),
        np.array([1.77, 3 * 1.77, 0.0, -1.0], dtype=np.float32),
    ],
    "uint8_and_uint64_arrays": [
        np.array([0, 7, 255], dtype=np.uint8),
        np.array([0, 10**12, 2**64 - 1], dtype=np.uint64),
    ],
    "int64_negative_and_1e12": [
        np.array([-7, -(10**13), 0], dtype=np.int64),
        np.array([10**12, 123_456_789_012_345, 2**63 - 1], dtype=np.int64),
    ],
    "float64_special_values": [
        np.array([math.nan, math.inf, -math.inf]),
        np.array([-0.0, 5e-324, 1.2e14]),
    ],
    "bool_complex_and_object_arrays": [
        np.array([True, False, True]),
        np.array([1 + 2j, -0.5j, 3 * 1.77 + 0j]),
        np.array([1, 1.77, "a"], dtype=object),
    ],
    "range_with_a_step": [range(-3, 12, 5), range(10, 0, -4)],
    "zero_length_typed_arrays": [
        np.array([], dtype=np.float64),
        np.array([], dtype=np.int64),
        np.array([], dtype=np.float32),
        range(0),
    ],
    "typed_with_list_and_str_columns": [
        np.array([0.1 * 3, 1.77]),
        [1, 3 * 1.77],
        ["gain", "gamma"],
        np.array([10**12, -1]),
        range(2),
    ],
    # no dtype conversion for these: the cell types decide
    "longdouble_and_two_dimensional_arrays": [
        np.array([0.1, 1.77], dtype=np.longdouble),
        np.array([[0.5, 1.0], [2.0, 3 * 1.77]]),
        np.array([[1], [2]]),
    ],
}


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002])
def test_emitted_file_mode_follows_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_csv(tmp_path / "table.csv", ["a"], [[1]])
        write_json(tmp_path / "report.json", {"a": 1})
    finally:
        os.umask(old)
    for name in ("table.csv", "report.json"):
        mode = stat.S_IMODE((tmp_path / name).stat().st_mode)
        assert mode == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "table.csv"]


@pytest.mark.parametrize("column", [[True, False], np.array([True, False])])
def test_bools_spelled_lowercase(tmp_path, column):
    write_csv(tmp_path / "flags.csv", ["passed"], [column])
    assert (tmp_path / "flags.csv").read_text() == "passed\ntrue\nfalse\n"


@pytest.mark.parametrize("columns", TABLES.values(), ids=TABLES)
def test_matches_per_cell_reference(tmp_path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    write_csv(tmp_path / "table.csv", header, columns)
    assert (tmp_path / "table.csv").read_text() == per_cell_reference(header, columns)


@settings(max_examples=50, **DETERMINISTIC)
@given(
    columns=st.integers(0, 40).flatmap(
        lambda n_rows: st.lists(
            st.one_of(
                hnp.arrays(np.float64, n_rows),
                hnp.arrays(np.int64, n_rows),
            ),
            min_size=1,
            max_size=4,
        )
    )
)
def test_typed_arrays_match_per_cell_reference(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("typed") / "table.csv"
    header = [f"c{j}" for j in range(len(columns))]
    write_csv(path, header, columns)
    assert path.read_text() == per_cell_reference(header, columns)


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
    "columns",
    [
        [[1.5], [2.5, 3]],
        [[1.5, 2.5, 3], []],
        [np.array([1.5, 2.5]), range(3)],
        [[1.5, 2.5]],
        [],
        [[1], [2], [3]],
    ],
)
def test_columns_must_match_header(tmp_path, columns):
    with pytest.raises(ValueError, match="2 columns of equal length"):
        write_csv(tmp_path / "table.csv", ["a", "b"], columns)
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_is_strict(tmp_path, value):
    # a report holds strict JSON, which has no NaN or Infinity
    with pytest.raises(ValueError):
        write_json(tmp_path / "report.json", {"headline": {"a": value}})
    assert not any(tmp_path.iterdir())
