"""Benchmark of the planner's budget sweep.

    python3 bench/run.py                        # every workload, one after another
    python3 bench/run.py --workload fig2-dense --seed 0 --seconds 30 --trace 0

Each workload runs in a child process of its own (workload.py) with the
planner from ``src/`` and BLAS pinned to one thread. With ``--trace 0`` the
child reports the end-to-end metrics, with ``--trace 1`` the per-layer ones.
Every metric is printed by name and unit with the attempted and failed
operation counts; the last line of standard output is the result as one JSON
object. The exit code is non-zero when a check fails or a run gives no result.
See README.md in this directory for the workloads and the metrics.
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
SRC = ROOT / "src"
OUT = HERE / "out"
# the names of workload.WORKLOADS; run.py imports nothing from the planner, so
# that it can report missing sources instead of failing on an import
WORKLOADS = ("fig2-dense", "tiny-search", "mid-pipeline")
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS")


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict | None:
    env = dict(os.environ, PYTHONPATH=str(SRC), **{var: "1" for var in SINGLE_THREAD})
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT / name)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
        return None


def show(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"  {metric:34s} {value:>14s} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "backhaul_planner" / "__init__.py").is_file():
        print(f"error: the planner's sources are missing under {SRC}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        show(name, result)
        results[name] = result
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
