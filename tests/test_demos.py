"""Every narrative script under demos/ runs to the end without an error."""

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
