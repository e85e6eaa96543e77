"""Self-test of the benchmark harness; runs in seconds.

    python3 loopbench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, then runs every
workload at a tiny config (d=16, 1 layer, n=1, T=2, B=2, 3x3 grids) for
a fixed number of reps: once untraced and twice traced.  Tracing must be
bit-neutral (same parameter and prediction digests), the exact counters
must repeat between the two traced runs, self times must account for the
wall time of the reps, every patch must be undone, and the metric names
and units must match BENCHMARK.json.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def check(cond, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def synthetic_tree() -> None:
    from tracer import Tracer, layer_table, self_times

    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.5, 9.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    root = t.begin("bench.rep")        # 0 .. 10
    a = t.begin("x")                   # 1 .. 4
    a1 = t.begin("x")                  # 2 .. 3, nested in a span of its own name
    t.end(a1)
    t.end(a)
    b = t.begin("y")                   # 5 .. 9
    b1 = t.begin("z")                  # 6 .. 6.5
    t.end(b1)
    t.end(b)
    t.end(root)
    check(self_times(t.spans) == [3.0, 2.0, 1.0, 3.5, 0.5], f"self times {self_times(t.spans)}")
    table, n = layer_table(t.spans, "bench.rep")
    check(n == 1, "one root")
    check(table["x"] == {"calls": 2, "s": 3.0, "self_s": 3.0}, f"nested name {table['x']}")
    check(sum(r["self_s"] for r in table.values()) == table["bench.rep"]["s"] == 10.0,
          "self times must sum to the root's duration")


def snapshot(lf) -> dict:
    return {(mod, name): getattr(getattr(lf, mod), name)
            for mod in vars(lf) for name in dir(getattr(lf, mod))
            if callable(getattr(getattr(lf, mod), name))}


def workloads_at_tiny(lf) -> None:
    import metrics
    import workloads
    from tracer import Tracer

    out = run.OUT_DIR
    out.mkdir(parents=True, exist_ok=True)
    before = snapshot(lf)
    adamw_apply = lf.training.AdamW.apply
    for name in workloads.WORKLOADS:
        plain, _ = workloads.run(lf, name, workloads.TINY, 3, out, seconds=None, reps=2,
                                 setups=2)
        check(plain.failed == 0 and plain.attempted > 0, f"{name}: calls failed {plain.notes}")
        check(all(plain.checks.values()), f"{name}: checks {plain.checks}")
        e2e = metrics.end_to_end(plain, 0.1, 0.1, run.peak_rss_mb())
        check(set(e2e) == set(metrics.END_TO_END), f"{name}: end-to-end names")
        check(all(v > 0 for v in e2e.values()), f"{name}: end-to-end values {e2e}")
        exact = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install(lf)
            try:
                traced, _ = workloads.run(lf, name, workloads.TINY, 3, out, seconds=None,
                                          reps=2, setups=2, tracer=tracer)
            finally:
                tracer.restore()
            check(snapshot(lf) == before and lf.training.AdamW.apply is adamw_apply,
                  f"{name}: a patch was left behind")
            check(traced.digests == plain.digests,
                  f"{name}: tracing changed results {traced.digests} vs {plain.digests}")
            check(traced.failed == 0 and all(traced.checks.values()), f"{name}: traced checks")
            layers = metrics.per_layer(tracer, traced)
            check(set(layers) == set(metrics.PER_LAYER), f"{name}: per-layer names")
            wall, covered = metrics.accounting(tracer)
            check(abs(wall - covered) <= 1e-9 * wall, f"{name}: self times {covered} != {wall}")
            exact.append({k: layers[k] for k in metrics.EXACT_COUNTERS})
        check(exact[0] == exact[1], f"{name}: exact counters differ {exact}")
        if name.startswith("train"):
            check(layers["model.phi_apply.calls"] > 0 and layers["autodiff.graph_nodes"] > 0
                  and layers["training.windows"] > 0, f"{name}: training layers not traced")
        else:
            check(layers["inference.case_iters"] > 0 and layers["autodiff.backward.calls"] == 0,
                  f"{name}: eval layers")
        print(f"ok {name}: {plain.attempted} calls, digests equal traced/untraced, "
              f"exact counters {exact[0]}")


def benchmark_json() -> None:
    import metrics
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS), "workloads")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END,
          "end_to_end names and units")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER,
          "per_layer names and units")


def main() -> int:
    run.pin_threads()
    lf, _ = run.import_loopforge()
    try:
        synthetic_tree()
        print("ok self-time arithmetic")
        benchmark_json()
        print("ok BENCHMARK.json matches the metric definitions")
        workloads_at_tiny(lf)
    except AssertionError as e:
        print(f"FAIL {e}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
