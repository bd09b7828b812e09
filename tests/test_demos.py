"""Every narrative script and the sweep config under demos/ run without an error."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    # run from an empty directory, so any file a demo writes lands there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr


def test_sweep_example_config_runs(tmp_path):
    # the committed sweep config, checked per scheme at the benchmark's closed-form tolerances;
    # he-ho's are looser than verify's: alpha 0.7 at cutoff 10 is off by up to 2.4e-7
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "hyswap", "sweep", str(ROOT / "demos" / "sweep_example.cfg")],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert out.returncode == 0, out.stderr
    with open(tmp_path / "sweep_example.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 42
    tolerances = {"dv": (1e-6, 1e-6), "he-spd": (1e-6, 1e-6), "he-ho": (1e-4, 2e-3)}
    for row in rows:
        tol_p, tol_E = tolerances[row["scheme"]]
        assert float(row["err_p"]) <= tol_p and float(row["err_E"]) <= tol_E, row
