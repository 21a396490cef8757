"""Smoke test of the narrative demos and the README's library tour: each runs
to completion in a scratch directory (the demos write their CSV files to the
working directory), and the demos report no disagreement between the engines
they compare."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zonocount

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    # run against the package under test, wherever it is imported from
    src = str(Path(zonocount.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    assert "MISMATCH" not in _run([str(demo)], tmp_path)


def test_readme_quick_tour_runs(tmp_path):
    # the README's "Library quick tour" block, so its calls cannot drift from the API
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library quick tour\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert tour is not None
    _run(["-c", tour.group(1)], tmp_path)
