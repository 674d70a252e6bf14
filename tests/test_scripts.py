"""The table scripts under scripts/ run end to end on a one-point grid."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args", [
    ("run_logistic_table.py", ["--n", "9", "--T", "60"]),
    ("run_quantile_tables.py", ["--model", "model3", "--n", "9", "--T", "40"]),
    ("run_group_count_table.py", ["--n", "12", "--T", "40"]),
])
def test_script_prints_one_row_per_grid_point(monkeypatch, capsys, script,
                                              args):
    monkeypatch.setattr(sys, "argv", [script, "--reps", "1", *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["n", "T"]
    assert len(rows) == 1
    n, T, *values = rows[0].split()
    assert (n, T) == (args[-3], args[-1])
    assert len(values) == len(header.split()) - 2
    # perfect/average match and group-count frequencies all lie in [0, 1]
    assert all(0.0 <= float(v) <= 1.0 for v in values)
