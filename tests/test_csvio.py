import os
import stat

import pytest

from qndsim.csvio import write_csv, write_json


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
