import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qndsim.csvio import write_csv, write_json

from test_domains import DETERMINISTIC


def format_value(value) -> str:
    """One cell as a CSV cell reads: bools true/false, floats %.12g, any
    other value by str()."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def per_cell_reference(header, columns) -> str:
    """The bytes write_csv must give: format_value on every cell, with
    ndarray columns read through tolist()."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    lines = [",".join(header), *(",".join(map(format_value, row)) for row in zip(*cells))]
    return "\n".join(lines) + "\n"


TABLES = {
    # repr(3 * 1.77) is 5.3100000000000005; .12g gives 5.31
    "repr_floats": [np.array([1.0, 1.77, 3 * 1.77])],
    "float_int_and_bool_arrays": [
        np.array([0.1 * 3, -2.5e-7]),
        np.array([10**13, -7]),
        np.array([True, False]),
    ],
    "str_array_and_range": [np.array(["gain", "gamma_MHz"]), range(2)],
    "float16_and_float32_arrays": [
        np.array([0.1, -2.5e-7, 3e38, 1.17549435e-38], dtype=np.float32),
        np.array([1.77, 3 * 1.77, 0.0, -1.0], dtype=np.float32),
        np.array([0.1, 65504.0, -0.0, 6e-8], dtype=np.float16),
    ],
    "uint8_and_uint64_arrays": [
        np.array([0, 7, 255], dtype=np.uint8),
        np.array([0, 10**12, 2**64 - 1], dtype=np.uint64),
    ],
    # %s gives every digit of an integer; %.12g would print 1e+12
    "int64_negative_and_1e12": [
        np.array([-7, -(10**13), 0], dtype=np.int64),
        np.array([10**12, 123_456_789_012_345, 2**63 - 1], dtype=np.int64),
    ],
    "float64_special_values": [
        np.array([math.nan, math.inf, -math.inf]),
        np.array([-0.0, 5e-324, 1.2e14]),
        np.array([2.2250738585072014e-308, 1.2e-5, 123456789012.5]),
    ],
    "range_with_a_step": [range(-3, 12, 5), range(10, 0, -4)],
    "zero_rows": [
        np.array([], dtype=np.float64),
        np.array([], dtype=np.int64),
        np.array([], dtype=np.float32),
        np.array([], dtype=bool),
        np.array([], dtype=str),
        range(0),
    ],
    "every_kind_in_one_table": [
        np.array([0.1 * 3, 1.77]),
        np.array(["gain", "gamma"]),
        np.array([10**12, -1]),
        range(2),
        np.array([False, True]),
    ],
    # a transposed row of a 2-d array is a 1-d view that strides over it
    "strided_rows_of_a_2d_array": [*np.array([[0.5, 1.0], [2.0, 3 * 1.77]]).T],
}


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002])
def test_emitted_file_mode_follows_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_csv(tmp_path / "table.csv", ["a"], [range(1)])
        write_json(tmp_path / "report.json", {"a": 1})
    finally:
        os.umask(old)
    for name in ("table.csv", "report.json"):
        mode = stat.S_IMODE((tmp_path / name).stat().st_mode)
        assert mode == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "table.csv"]


def test_bools_spelled_lowercase(tmp_path):
    write_csv(tmp_path / "flags.csv", ["passed"], [np.array([True, False])])
    assert (tmp_path / "flags.csv").read_text() == "passed\ntrue\nfalse\n"


@pytest.mark.parametrize("columns", TABLES.values(), ids=TABLES)
def test_matches_per_cell_reference(tmp_path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    write_csv(tmp_path / "table.csv", header, columns)
    assert (tmp_path / "table.csv").read_text() == per_cell_reference(header, columns)


def _column(n_rows):
    """One column of n_rows cells of any kind that write_csv takes."""
    text = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=8)
    return st.one_of(
        hnp.arrays(np.float64, n_rows),
        hnp.arrays(np.int64, n_rows),
        hnp.arrays(np.bool_, n_rows),
        hnp.arrays("U8", n_rows, elements=text),
        st.builds(
            lambda start, step: range(start, start + step * n_rows, step),
            st.integers(-(10**15), 10**15),
            st.integers(-(10**6), 10**6).filter(bool),
        ),
    )


@settings(max_examples=50, **DETERMINISTIC)
@given(
    columns=st.integers(0, 40).flatmap(
        lambda n_rows: st.lists(_column(n_rows), min_size=1, max_size=5)
    )
)
def test_typed_columns_match_per_cell_reference(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("typed") / "table.csv"
    header = [f"c{j}" for j in range(len(columns))]
    write_csv(path, header, columns)
    # bytes, not text: a str cell may hold a CR, which read_text would translate
    assert path.read_bytes() == per_cell_reference(header, columns).encode()


REJECTED = {
    "list": [1.5, 2.5],
    "tuple": ("gain", "gamma"),
    "scalar": 1.5,
    "numpy_scalar": np.float64(1.5),
    "mixed_list": [1, 1.77],
    "zero_dimensional_array": np.array(1.5),
    "two_dimensional_array": np.array([[0.5], [1.0]]),
    "complex_array": np.array([1 + 2j, -0.5j]),
    "object_array": np.array([1, "a"], dtype=object),
    "longdouble_array": np.array([0.1, 1.77], dtype=np.longdouble),
    "bytes_array": np.array([b"gain", b"gamma"]),
}


@pytest.mark.parametrize("column", REJECTED.values(), ids=REJECTED)
def test_other_columns_raise_type_error_and_write_nothing(tmp_path, column):
    with pytest.raises(TypeError, match="a CSV column is"):
        write_csv(tmp_path / "table.csv", ["a", "b"], [np.array([0.5, 1.0]), column])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "columns",
    [
        [np.array([1.5]), np.array([2.5, 3.0])],
        [np.array([1.5, 2.5, 3.0]), np.array([])],
        [np.array([1.5, 2.5]), range(3)],
        [np.array([1.5, 2.5])],
        [],
        [range(1), range(1), range(1)],
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
