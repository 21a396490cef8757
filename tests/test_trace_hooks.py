"""The benchmark's span recorder (perfbench/tracing.py) wraps CoeffTable and
ClassSystem methods by name; renaming one breaks ``--trace 1`` at install.

``tracing.install`` patches the zonocount modules in place, so it runs in a
fresh interpreter here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
import zonocount.cli
code = zonocount.cli.main(["count", "--dim", "2", "--n", "3"])
passes = sum(1 for span in tracer.spans if span[0] == "exact.CoeffTable.class_pass")
sys.exit(code if passes else 3)
"""


def test_trace_hooks_install_and_record_class_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"z_exact": 34' in proc.stdout
