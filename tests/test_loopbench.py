"""The benchmark harness drives the package's public functions by name;
its self-test fails when a refactor renames or re-signs one of them."""

import ast
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from conftest import mean_all
from loopforge import (autodiff as ad, corruption, inference, model, seeding, tasks,
                       training)

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


def test_tracer_times_the_vjps_backward_runs(monkeypatch):
    # the tracer sets `out.vjp` on the Tensor a primitive returns to a timed
    # copy; that must reach the node backward calls, so each primitive's
    # vjp span nests under autodiff.backward and its gradients are unchanged
    monkeypatch.syspath_prepend(str(ROOT / "loopbench"))
    from tracer import Tracer

    def grads():
        a = ad.tensor(np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3),
                      requires_grad=True)
        b = ad.tensor(np.linspace(0, 1, 12, dtype=np.float32).reshape(3, 4),
                      requires_grad=True)
        h, wqkv, wo = (ad.tensor(np.linspace(-1, 1, n, dtype=np.float32).reshape(s),
                                 requires_grad=True)
                       for n, s in ((24, (2, 3, 4)), (48, (4, 12)), (16, (4, 4))))
        gain = ad.tensor(np.ones(4, np.float32), requires_grad=True)
        att = ad.attention(h, wqkv, wo, gain, 2)
        ad.backward(ad.add(mean_all(ad.silu(ad.matmul(a, b))), mean_all(att)))
        return [t.adjoint.tobytes() for t in (a, b, h, wqkv, wo, gain)]

    want = grads()
    tracer = Tracer()
    tracer.install(SimpleNamespace(autodiff=ad, corruption=corruption, inference=inference,
                                   model=model, seeding=seeding, tasks=tasks,
                                   training=training))
    try:
        root = tracer.begin("bench.rep")
        got = grads()
        tracer.end(root)
    finally:
        tracer.restore()
    assert got == want
    parent_of = {name: tracer.spans[parent][0] for name, _, _, parent in tracer.spans}
    for op in ("matmul", "silu", "masked_mean", "attention"):
        assert parent_of.get(f"autodiff.{op}.vjp") == "autodiff.backward", op
