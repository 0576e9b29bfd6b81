"""The benchmark's own checks, run on its smallest inputs: a change that breaks an oracle fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tiny_benchmark_run_is_correct():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--tiny", "--seconds", "0.05"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
