#!/usr/bin/env python3
"""Run the benchmark on a parent revision and on HEAD in alternating pairs.

Exports the committed files of PARENT_REV and HEAD to temporary directories and runs
``bench/run.py --seed N`` in each, once per side per pair; the parent runs
first in even pairs and HEAD in odd ones. Writes one JSON file (rewritten
after every pair) with, per side, the median and quartiles of every metric of
every workload, the operations attempted and failed, and each run's final
result line and artifact hash lines; also the core count, the Python and
numpy versions and both revisions. It also reports whether every run printed
the same hash lines and, for seed 0, whether they are the ones
``bench/README.md`` lists.

Usage:
    python3 scripts/bench_pairs.py PARENT_REV [--pairs 10] [--seed 0] [--out BENCH.json]
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the line workload.py prints on stderr per instance
HASH_LINE = re.compile(r"\S+ inst\d+: front\.csv [0-9a-f]{64} bounds\.csv [0-9a-f]{64}")
README_ROW = re.compile(r"^\| (\S+) \| (inst\d+) \| `([0-9a-f]{64})` \| `([0-9a-f]{64})` \|$", re.M)
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` to the new directory ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(tree: Path, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--seed", str(seed)], cwd=tree,
                          capture_output=True, text=True)
    try:
        final = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        final = None
    hashes = [m.group(0) for m in map(HASH_LINE.search, proc.stderr.splitlines()) if m]
    return {"exit": proc.returncode, "hashes": hashes, "final_line": final}


def summarize(runs: list) -> dict:
    finals = [run["final_line"] for run in runs if run["final_line"]]
    summary = {"attempted": sum(f["attempted"] for f in finals), "failed": sum(f["failed"] for f in finals)}
    for name in dict.fromkeys(name for f in finals for name in f["metrics"]):
        entries = [f["metrics"][name] for f in finals if f["metrics"].get(name, {}).get("value") is not None]
        values = [e["value"] for e in entries]
        if len(values) >= 2:
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": entries[0]["unit"], "n": len(values)}
    return summary


def numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", metavar="PARENT_REV", help="the revision HEAD is compared against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    result = {
        "command": f"python3 bench/run.py --seed {args.seed}",
        "pairs": 0,
        "order": "alternating; the parent runs first in even pairs",
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version(),
            "platform": platform.platform(),
        },
        "revisions": {side: {"commit": rev, "src_tree": git("rev-parse", f"{rev}:src")} for side, rev in revs.items()},
        "summary": {},
        "runs": {side: [] for side in SIDES},
    }
    out = Path(args.out)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {}
        for side in SIDES:
            trees[side] = Path(tmp, side)
            export(revs[side], trees[side])
        readme = (trees["change"] / "bench" / "README.md").read_text()
        listed = [f"{w} {i}: front.csv {f} bounds.csv {b}" for w, i, f, b in README_ROW.findall(readme)]
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                print(f"pair {pair}: {side}", file=sys.stderr, flush=True)
                run = run_bench(trees[side], args.seed)
                result["runs"][side].append({"pair": pair, "ran_second": position == 1, **run})
            runs = [run for side in SIDES for run in result["runs"][side]]
            result["pairs"] = pair + 1
            result["summary"] = {side: summarize(result["runs"][side]) for side in SIDES}
            result["hashes"] = {
                "identical_in_every_run": all(run["hashes"] == runs[0]["hashes"] for run in runs),
                "as_in_bench_readme": (all(run["hashes"] == listed for run in runs)
                                       if args.seed == 0 else None),
            }
            out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}: {result['pairs']} pairs", file=sys.stderr)
    return 0 if all(run["exit"] == 0 for side in SIDES for run in result["runs"][side]) else 1


if __name__ == "__main__":
    sys.exit(main())
