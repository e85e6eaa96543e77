"""Loop benchmark for loopforge: one workload per process.

    python3 loopbench/run.py --workload train_drm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads are `train_drm`, `train_trm` and `eval_vote` (see
workloads.py).  With `--trace 0` the last line of standard output is a
JSON object whose metrics are the end-to-end ones; with `--trace 1` the
public functions of every module are wrapped in spans and the metrics
are the per-layer ones.  The lines before it stamp the environment,
print the digests that show tracing is bit-neutral, and list each
metric with its unit.  A full record, spans included, is written to
`loopbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "loopbench" / "out"
THREAD_VARS = ("LOOPFORGE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_loopforge():
    """Import the checkout's package from src/; returns (namespace, seconds)."""
    src = ROOT / "src"
    if not (src / "loopforge" / "__init__.py").is_file():
        raise SystemExit(f"loopbench: no loopforge package under {src}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed with the package it serves)
    from loopforge import (autodiff, corruption, inference, model, seeding, tasks,
                           training)
    seconds = time.perf_counter() - t0
    if Path(model.__file__).resolve().parent != src / "loopforge":
        raise SystemExit(f"loopbench: imported loopforge from {model.__file__}, not {src}")
    lf = argparse.Namespace(autodiff=autodiff, corruption=corruption, inference=inference,
                            model=model, seeding=seeding, tasks=tasks, training=training)
    return lf, seconds


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import numpy; from loopforge import (autodiff, corruption, inference, model, "
                "seeding, tasks, training); print(time.perf_counter() - t)")


def import_seconds(repeats: int = 5) -> float:
    """Median import time of numpy and the package, each in a fresh
    interpreter, so that set-up time includes import without resting on
    one sample."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, trace: bool) -> dict:
    import numpy as np  # only after pin_threads

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "loopforge").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    pin_threads()
    lf, first_import_s = import_loopforge()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import metrics
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                + ", ".join(workloads.WORKLOADS))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    env = environment(args.workload, args.seed, bool(args.trace))

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(lf)
    try:
        record, setup_s = workloads.run(lf, args.workload, workloads.DESK, args.seed, OUT_DIR,
                                        seconds=args.seconds, tracer=tracer)
    finally:
        if tracer:
            tracer.restore()

    import_s = None
    if tracer:
        values = metrics.per_layer(tracer, record)
        units = metrics.PER_LAYER
        wall, covered = metrics.accounting(tracer)
        record.checks["self_times_account_for_wall"] = abs(wall - covered) <= 1e-6 * wall
    else:
        import_s = import_seconds()
        values = metrics.end_to_end(record, setup_s, import_s, peak_rss_mb())
        units = metrics.END_TO_END
    correct = record.failed == 0 and all(record.checks.values())

    print("env " + json.dumps(env, sort_keys=True))
    print("digests " + json.dumps(record.digests, sort_keys=True))
    if record.checks:
        print("checks " + json.dumps(record.checks, sort_keys=True))
    if record.findings:
        print("findings " + json.dumps(record.findings, sort_keys=True))
    for note in record.notes:
        print("note " + note)
    print(f"{'failed_ratio':<36} {record.failed / record.attempted:>14.6g} ratio "
          f"({record.failed} of {record.attempted} calls)")
    for name, value in values.items():
        print(f"{name:<36} {value:>14.6g} {units[name]}")
    if tracer:
        print("exact " + json.dumps({k: values[k] for k in metrics.EXACT_COUNTERS}))
        print(f"accounting: reps {wall:.6f} s, self times {covered:.6f} s, "
              f"uncovered {values['trace.uncovered_s']:.6f} s per rep")
        for name, self_s, calls in metrics.top_layers(tracer):
            print(f"  self {self_s:10.4f} s/rep  {calls:8.1f} calls/rep  {name}")

    result = {"correct": correct, "attempted": record.attempted, "failed": record.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    full = dict(result, env=env, digests=record.digests, checks=record.checks,
                findings=record.findings, notes=record.notes, calls=record.calls,
                rep_s=record.rep_s, setup_s_median=setup_s, warm_up_s=record.warm_up_s,
                import_s=import_s, first_import_s=first_import_s)
    if tracer:
        full["spans"] = tracer.spans
        full["counters"] = {str(k): dict(v) for k, v in tracer.counters.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(full))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
