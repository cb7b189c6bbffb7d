"""Smoke test of the benchmark itself: every workload, traced and untraced,
at tiny scale must pass its gate and print every metric BENCHMARK.json names."""

import subprocess
import sys
from pathlib import Path


def test_benchmark_smoke():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().endswith("smoke: ok")
