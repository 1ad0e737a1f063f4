"""The benchmark's output checks and operation counts pass their self-test."""
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "selftest.py"], cwd=BENCH,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
