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
# builds run no class passes: the pass oracle is a test oracle, traced when called
table = zonocount.exact.CoeffTable(2, (3, 3))
table.class_pass((1, 1), 2)
table.shifted_add(table, (1, 0))
spans = [span[0] for span in tracer.spans]
ok = [spans.count(f"exact.CoeffTable.{name}") for name in ("class_pass", "shifted_add")] == [1, 1]
sys.exit(code if ok else 3)
"""


def test_trace_hooks_install_and_record_class_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"z_exact": 34' in proc.stdout
