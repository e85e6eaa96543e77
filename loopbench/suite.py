"""Run every workload, one process at a time, and print its metrics.

    python3 loopbench/suite.py --seed 1 --seconds 20 [--trace]

Each workload runs in its own single-threaded process, as run.py does
for the benchmark.  The end-to-end metrics of each are printed with
their units, and failed_ratio with the counts it comes from.  With
--trace, each workload then runs again traced; the tracing overhead is
the untraced items_per_s over the traced one, minus one.  The two runs
are minutes apart, so drift in the host's speed enters that figure too.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    all_correct = True
    for workload in WORKLOADS:
        res = run_one(workload, args.seed, args.seconds, 0)
        all_correct &= res["correct"]
        print(f"{workload}: correct={res['correct']}")
        print(f"  {'failed_ratio':<14} {res['failed'] / res['attempted']:>12.6g} ratio "
              f"({res['failed']} of {res['attempted']} calls)")
        for name, m in res["metrics"].items():
            print(f"  {name:<14} {m['value']:>12.6g} {m['unit']}")
        if args.trace:
            traced = run_one(workload, args.seed, args.seconds, 1)
            fast = res["metrics"]["items_per_s"]["value"]
            slow = traced["metrics"]["trace.items_per_s"]["value"]
            print(f"  {'trace overhead':<14} {fast / slow - 1:>12.4%} "
                  f"(items_per_s {fast:.6g} untraced, {slow:.6g} traced)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
