"""``tools/states_digest.py``: the bit-for-bit record of the gated workloads' solves."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _lines():
    cmd = [sys.executable, "tools/states_digest.py", "--tiny", "--seeds", "801", "5"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_two_runs_agree():
    """At the smoke test's sizes, one line per seed and gated workload, each
    a states digest, a pass count and a ``counts_sha``, the same on a rerun."""
    first = _lines()
    assert first == _lines()
    assert [line.split()[:2] for line in first] == [["801", "s5-merit"], ["801", "lorenz96-kalman"],
                                                    ["5", "s5-merit"], ["5", "lorenz96-kalman"]]
    for line in first:
        assert re.fullmatch(r"\d+ \S+ [0-9a-f]{16} [1-9]\d* [0-9a-f]{16}", line), line
