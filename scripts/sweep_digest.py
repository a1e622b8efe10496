#!/usr/bin/env python3
"""Digest the budget sweep on seeded tiny instances, for differential runs.

Solves ``tiny_instance(seed)`` for each seed of a range with the criterion-2
settings (10 multiplier rounds, 50x50 tabu iterations), once per restriction
("none", "fiber-only", "single-hop"). Prints one sha256 per sweep and, last,
one sha256 over all of them. A sweep's digest covers its front (objectives,
deployment and connection plan of every entry), its bounds, its budgets and
its multiplier trace, with every float written by ``float.hex``, so two
source trees that print the same lines solved bit-identically.

Usage:
    python scripts/sweep_digest.py                      # seeds 2000..2089
    python scripts/sweep_digest.py --first 2000 --count 3
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

# the tree's own sources and the test suite's instance builders
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from backhaul_planner import SearchParams, solve  # noqa: E402
from backhaul_planner.lagrangian import RESTRICTIONS  # noqa: E402
from backhaul_planner.pareto import SolveParams  # noqa: E402

CRITERION_2 = SolveParams(
    n_lagrangian=10,
    search=SearchParams(n_outer=50, n_inner=50, n_div=2, tenure_ban=7, tenure_station=10, seed=0),
)


def _hex(row) -> list:
    return [x.hex() if isinstance(x, float) else x for x in row]


def sweep_rows(result) -> list:
    """Everything a sweep returns, as JSON-ready rows with exact floats."""
    front = []
    for e in result.front:
        dep, plan, obj = e.solution.deployment, e.solution.plan, e.objectives
        front.append([
            _hex([e.epsilon, obj.cost, obj.uncovered_subareas, obj.uncovered_machines, obj.weighted_uncovered]),
            [dep.open_bans(), dep.open_sbss(), dep.open_mas()],
            sorted(plan.ban_cover.items()), sorted(plan.sbs_cover.items()), sorted(plan.sbs_parent.items()),
            sorted(plan.ma_parent.items()), sorted(plan.machine_cover.items()),
        ])
    bounds = [_hex([b.epsilon, b.bound, b.heuristic]) for b in result.bounds]
    return [front, bounds, _hex(result.epsilons), [_hex(row) for row in result.multiplier_trace]]


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first", type=int, default=2000, help="first instance seed")
    parser.add_argument("--count", type=int, default=90, help="number of instances")
    args = parser.parse_args()

    from util import tiny_instance

    started = time.time()
    overall = hashlib.sha256()
    for seed in range(args.first, args.first + args.count):
        scenario, tables = tiny_instance(seed)
        for restrict in RESTRICTIONS:
            params = dataclasses.replace(CRITERION_2, restrict=restrict)
            result = solve(scenario, tables, params=params)
            digest = hashlib.sha256(json.dumps(sweep_rows(result)).encode()).hexdigest()
            overall.update(digest.encode())
            print(f"{seed} {restrict} {digest}", flush=True)
    print(f"overall {overall.hexdigest()}")
    print(f"{args.count * len(RESTRICTIONS)} sweeps in {time.time() - started:.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
