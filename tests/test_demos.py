"""Every demo runs to completion, with numpy warnings as errors, and
writes the CSVs it reports."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, DEMO_OUT=str(tmp_path), MPLCONFIGDIR=str(tmp_path),
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for path in re.findall(r"^wrote (.+\.csv)$", proc.stdout, re.MULTILINE):
        assert Path(path).is_file(), path
