"""Smoke test of the narrative demos: each runs to completion in a scratch
directory (they write their CSV files to the working directory) and reports
no disagreement between the engines it compares."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zonocount

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # run against the package under test, wherever it is imported from
    src = str(Path(zonocount.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
