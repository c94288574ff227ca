"""The benchmark's tiny-size self-test, run as part of the test suite.

``perfbench/smoke.py`` patches library names from outside (the names listed
in ``perfbench/spans.py``) and passes ``workers=`` to ``scan_stacked`` by
keyword, so it fails when a library change breaks that contract.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout
