"""The path of both tabu-search users, pinned by digest.

For a few tiny instances this hashes the path of ``solve_relaxed``'s search
(every step that ``util.recorded_searches`` records) with the final value
and plan, and the front that ``pareto._FrontSearch.run`` harvests from the
same budget. The front digests were recorded when the relaxed solve and the
front search still had a two-level loop each, and the relaxed digests when
the relaxed search still ranked its lists in ``choose``, so a change of move
order, tabu clock or diversification fails here even where the end result
survives. tiny_instance(2007) at its cheapest anchor's cost meets an empty
anchor neighbourhood at outer steps 1 and 2, which pins the anchor clock rule;
tiny_instance(2009) at half the total cost pins the front search's
diversification, which counts no site frequencies.
"""

import hashlib
import json
import random

import pytest

from backhaul_planner import Solution, objectives
from backhaul_planner.lagrangian import Workspace, zero_multipliers
from backhaul_planner.pareto import FrontEntry, _FrontSearch
from backhaul_planner.tabu import SearchParams, initial_deployment, solve_relaxed
from util import random_multipliers, recorded_searches, tiny_instance

THETA = 0.5
GOLDEN = SearchParams(n_outer=6, n_inner=8, n_div=1, tenure_ban=2, tenure_station=3, seed=0)
WIDE = SearchParams(seed=4)  # the defaults: 10 x 12 steps, diversifies often on these instances

# (instance seed, budget, multiplier style, params) -> (relaxed digest, front digest)
CASES = {
    (2007, "cheapest", "zero", GOLDEN): (
        "49e97cad494de7cbc9e284e4a9807082bed4d17d9f9b9577fb602d7ca65f266f",
        "b5bb5276bc99c1f707179ada83e37fba188c7bc8b9b0e5a1af9cc7e8ce31cfbe",
    ),
    (2003, "cheapest", "mixed", WIDE): (
        "01e728bce5eb72507dc51a1c0c49f58db4db07466573b4a91ce8777b4057f79a",
        "7c625a4afb2cce8fae55c2ce3d74b1da0bd0708932e6da6ab3a5aa28eb5e5a79",
    ),
    (2000, "half", "mixed", GOLDEN): (
        "e942b706ffbd9e86cacd7ba78abac2d5576cea894682f30dda2c1540d231dcff",
        "302be24cca47279071a91bb2f6757d1322bf8f5d5faed9005712c0c5d4f077ce",
    ),
    (2002, "total", "small", WIDE): (
        "f82fcf3831d6e792b0014b6d1c3636a58aaba691171731b308da02a799b27c3e",
        "ec42ab7181af2ea1a0058fcd691ed5a187923755027117469a95b0e71fc3252f",
    ),
    (2005, "half", "zero", WIDE): (
        "52bda98313fdba4a06cad61058979e88135b3cf3508d053229ca548e219e0aca",
        "bf4edb5c746afb4a0953ba30113cd6392717d4601ca230ecc08c74da54fe1b34",
    ),
    # the front search diversifies here, and it reads no site frequencies
    (2009, "half", "mixed", GOLDEN): (
        "2e984776bab2337ca7a781345c345a10a78273951d21be3ad09c93e46e48d22a",
        "39ac0ce1c5c00bbe95c7a98a38756c489e7b3a1a8be71766ed0fb7db532495c6",
    ),
    (2011, "total", "mixed", GOLDEN): (
        "ee3a696e715fe925aa2d754f2f9e2ff104abbfd4216d9d4a4086773468a0b768",
        "722b6162346921348dc981b3cc71baa820ac4c2f2525d15af388b988341a2ad8",
    ),
}


def _budget(scenario, which: str) -> float:
    if which == "cheapest":
        return min(s.cost for s in scenario.ban_sites)
    return scenario.total_cost() * (0.5 if which == "half" else 1.0)


def _plan(solution, scenario):
    """The solution as digested rows: a 0/1 open flag per candidate site of
    each role, then the connection plan."""
    plan, sites = solution.plan, solution.deployment.sites
    groups = (("ban", scenario.ban_sites), ("sbs", scenario.sbs_sites), ("ma", scenario.ma_sites))
    return [
        *([int((kind, i) in sites) for i in range(len(group))] for kind, group in groups),
        sorted(plan.ban_cover.items()), sorted(plan.sbs_cover.items()),
        sorted(plan.sbs_parent.items()), sorted(plan.ma_parent.items()), sorted(plan.machine_cover.items()),
    ]


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def search_digests(seed: int, which: str, style: str, params: SearchParams) -> tuple[str, str]:
    scenario, tables = tiny_instance(seed)
    budget = _budget(scenario, which)
    multipliers = random_multipliers(random.Random(seed), scenario, style)

    with recorded_searches() as paths:
        solution, value = solve_relaxed(Workspace(scenario, tables, theta=THETA), multipliers, budget, params)
    (path,) = paths
    relaxed = _digest([path, value.hex(), _plan(solution, scenario)])

    ws = Workspace(scenario, tables, theta=THETA)
    window = max(s.cost for s in scenario.ban_sites + scenario.sbs_sites + scenario.ma_sites)
    empty = Solution.empty(scenario)
    start_front = [FrontEntry(empty, objectives(empty, scenario, THETA), budget)]
    search = _FrontSearch(ws, budget, window, params, random.Random(seed + 31))
    front, found = search.run(initial_deployment(ws, budget), start_front)
    entries = [
        [float(e.objectives.cost).hex(), float(e.objectives.weighted_uncovered).hex(), _plan(e.solution, scenario)] for e in front
    ]
    return relaxed, _digest([entries, len(found)])


@pytest.mark.parametrize("case", list(CASES), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-{c[3].n_outer}x{c[3].n_inner}")
def test_search_path_unchanged(case):
    assert search_digests(*case) == CASES[case]


def test_cheapest_budget_of_2007_has_two_empty_anchor_steps():
    scenario, tables = tiny_instance(2007)
    ws = Workspace(scenario, tables, theta=THETA)
    with recorded_searches() as paths:
        solve_relaxed(ws, zero_multipliers(scenario), _budget(scenario, "cheapest"), GOLDEN)
    anchor_steps = {step[1] for step in paths[0] if step[0] == "choose" and step[2] == -1}
    assert sorted(set(range(GOLDEN.n_outer)) - anchor_steps) == [1, 2]
