"""The benchmark harness drives the package's public functions by name;
its self-test fails when a refactor renames or re-signs one of them."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "loopbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # every traced workload keeps the recursion in float32
    counters = {m.group(1): ast.literal_eval(m.group(2)) for m in re.finditer(
        r"^ok (\w+): .*exact counters (\{.*\})$", proc.stdout, re.MULTILINE)}
    assert set(counters) == {"train_drm", "train_trm", "eval_vote"}, proc.stdout
    for name, exact in counters.items():
        assert exact["autodiff.non_f32_outputs"] == 0.0, (name, exact)
