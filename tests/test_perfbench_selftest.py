"""The benchmark's checker self-test runs as part of the test suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_checkers_self_test():
    proc = subprocess.run(
        [sys.executable, "perfbench/test_checks.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
