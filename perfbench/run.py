"""Benchmark entry point for the svtr repository.

    python3 perfbench/run.py --workload micro-overfit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a child process started from here, with the BLAS
thread count pinned in its environment before numpy loads.  The child's
report is relayed, and its result object is printed as the last line.  A
results file per run lands in ``.bench_results/`` (see ``compare.py``).
Run the benchmark alone on the machine: two 2-thread processes sharing two
cores once slowed an svtr-t step from 2 s to 31 s.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("micro-overfit", "t-train", "t-infer")
# One BLAS thread: the GEMMs of svtr-micro are too small to share, and a
# second thread on a shared two-core machine makes svtr-t steps erratic.
BLAS_THREADS = 1
# A child measures for --seconds; set-up repeats, checks and a traced run's
# untraced twin add at most about 100 s more.
CHILD_MARGIN_S = 110
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 results: Path) -> dict | None:
    """Run one workload in its own process; return its result, or None on failure."""
    env = dict(os.environ)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env.update({var: str(threads) for var in THREAD_VARS})
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work), "--results", str(results)]
    timeout = 2 * seconds + CHILD_MARGIN_S
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {timeout:g} s", file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        print(f"error: {workload} printed no result object", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="svtr benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "svtr" / "__init__.py").is_file():
        print(f"error: no svtr sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    results = ROOT / ".bench_results"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, args.trace, results)
        if outcome is None:
            return 1
        outcomes[name] = outcome
    if len(outcomes) == 1:
        final = outcomes[names[0]]
    else:
        final = {"correct": all(o["correct"] for o in outcomes.values()),
                 "attempted": sum(o["attempted"] for o in outcomes.values()),
                 "failed": sum(o["failed"] for o in outcomes.values()),
                 "metrics": {f"{w}/{k}": v for w, o in outcomes.items()
                             for k, v in o["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
