#!/usr/bin/env python3
"""Digest the budget sweep on seeded tiny instances, for differential runs.

Solves ``tiny_instance(seed)`` for each seed of a range with the criterion-2
settings (10 multiplier rounds, 50x50 tabu iterations), once per restriction
("none", "fiber-only", "single-hop"). Prints one sha256 per sweep and, last,
one sha256 over all of them. A sweep's digest covers its front (objectives,
deployment and connection plan of every entry), its bounds, its budgets and
its multiplier trace, with every float written by ``float.hex``, so two
source trees that print the same lines solved bit-identically.

With ``--tables`` it instead prints one sha256 per derived-tables sidecar,
written by ``gen`` and ``derive`` through the command line: for paper-fig2
seeds 0..5 (the preset and the bench's 30-SBS/5-MA make-up), for each
generator of the bench's tiny-search and mid-pipeline workloads at seeds
0..5, and for ``tests/data/golden_scenario.json``; then one sha256 over all.

Usage:
    python scripts/sweep_digest.py                      # seeds 2000..2089
    python scripts/sweep_digest.py --first 2000 --count 3
    python scripts/sweep_digest.py --tables
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

# the tree's own sources and the test suite's instance builders
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from backhaul_planner import SearchParams, cli, solve  # noqa: E402
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


def table_inputs():
    """(label, preset, gen overrides) of every generated make-up."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workload import WORKLOADS

    yield "paper-fig2", "paper-fig2", {}
    for name in ("fig2-dense", "tiny-search", "mid-pipeline"):
        workload = WORKLOADS[name]
        for i, gen in enumerate(g for n, g in enumerate(workload.gen) if g not in workload.gen[:n]):
            yield f"{name}[{i}]", workload.preset, gen


def _sidecar(scen: Path) -> str:
    """sha256 of the sidecar that ``derive`` writes for ``scen``."""
    if cli.main(["derive", str(scen)]) != 0:
        raise SystemExit(f"derive failed for {scen}")
    return hashlib.sha256(Path(str(scen) + ".tables.json").read_bytes()).hexdigest()


def tables_digest() -> int:
    overall = hashlib.sha256()
    work = Path(tempfile.mkdtemp())
    try:
        digests = []
        with contextlib.redirect_stdout(sys.stderr):  # the commands' own messages
            for label, preset, gen in table_inputs():
                (work / "gen.json").write_text(json.dumps({"gen": gen}))
                for seed in range(6):
                    scen = work / f"{label}-{seed}.json"
                    argv = ["gen", "--config", str(work / "gen.json"), "--seed", str(seed), "--out", str(scen)]
                    if cli.main(argv + (["--preset", preset] if preset else [])) != 0:
                        raise SystemExit(f"gen failed for {label} seed {seed}")
                    digests.append((f"{label} {seed}", _sidecar(scen)))
            golden = shutil.copy(ROOT / "tests" / "data" / "golden_scenario.json", work / "golden.json")
            digests.append(("golden", _sidecar(Path(golden))))
    finally:
        shutil.rmtree(work)
    for name, digest in digests:
        overall.update(digest.encode())
        print(f"{name} {digest}")
    print(f"overall {overall.hexdigest()}")
    return 0


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first", type=int, default=2000, help="first instance seed")
    parser.add_argument("--count", type=int, default=90, help="number of instances")
    parser.add_argument("--tables", action="store_true", help="digest derived-tables sidecars instead")
    args = parser.parse_args()
    if args.tables:
        return tables_digest()

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
