"""The scripts run end to end: their stdout is a parity output of the library."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_sigma_curves_rows_stay_under_their_hard_bounds():
    rows = list(csv.DictReader(io.StringIO(run_script("sigma_curves.py", "--n", "2", "--samples", "2", "--m", "1,4"))))
    assert list(rows[0]) == ["ball", "m", "median_residual", "max_residual", "curve", "hard_bound"]
    assert len(rows) == 4 * 2  # every ball at every m
    assert [(r["ball"], r["m"]) for r in rows[:2]] == [("coeff-l1", "1"), ("coeff-l1", "4")]
    bounded = [r for r in rows if r["hard_bound"]]
    assert bounded  # the L2 balls carry hard bounds
    assert [r for r in bounded if float(r["max_residual"]) > float(r["hard_bound"])] == []
