"""The benchmark's output checks and operation counts pass their self-test."""
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "selftest.py"], cwd=BENCH,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_traced_run_wraps_existing_functions():
    """`install_tracer` wraps library functions by name, so a deleted or
    renamed one raises AttributeError here rather than in a traced run."""
    code = ("import spans, workload\n"
            "tracer = spans.Tracer()\n"
            "workload.install_tracer(tracer)\n"
            "tracer.unwrap_all()\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
