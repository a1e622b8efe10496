"""Budget-sweep outer loop producing the Pareto front and its lower bounds.

Each budget iteration runs a fixed number of multiplier rounds (tabu solve of
the relaxed problem, then a subgradient step), records the best relaxed value
as that budget's lower bound, then explores deployments around the best round
solution with a two-level search restricted to costs inside an
intensification window below the budget. Feasible nondominated candidates are
merged into a global front; the budget then drops below the cheapest cost
discovered and the sweep continues until even the cheapest anchor no longer
fits.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Optional

from . import tabu
from .lagrangian import RESTRICTIONS, Multipliers, Workspace, subgradient, subgradient_update, zero_multipliers
from .model import (
    Deployment,
    ObjectiveVector,
    Solution,
    check_feasibility,
    dominates,
    objectives,
    root_path,
)
from .scenario import RADIO_BOUNDS, TOLERANCE, ConfigFieldError, DerivedTables, Scenario, check_fields
from .tabu import SearchParams


# theta is the MTC weight, so it follows the scenario's rule for that
_SOLVE_RULES = {
    "theta": {**RADIO_BOUNDS["mtc_weight"], "optional": True},
    "delta_c": {"above": 0.0},
    "delta_eps": {"minimum": 0.0, "optional": True},
    "n_lagrangian": {"integer": True, "minimum": 1},
    "max_iterations": {"integer": True, "minimum": 0, "optional": True},
}


@dataclass(frozen=True)
class SolveParams:
    theta: Optional[float] = None  # None: use the scenario's MTC weight
    delta_c: float = 1.0
    delta_eps: Optional[float] = None  # None: widest single-site cost
    n_lagrangian: int = 10
    max_iterations: Optional[int] = None
    restrict: str = "none"  # one of lagrangian.RESTRICTIONS
    search: SearchParams = SearchParams()

    def __post_init__(self):
        check_fields("solve", self, _SOLVE_RULES, ConfigFieldError)
        if self.restrict not in RESTRICTIONS:
            raise ValueError(f"restrict must be one of {RESTRICTIONS}")


@dataclass
class FrontEntry:
    solution: Solution
    objectives: ObjectiveVector
    epsilon: float


@dataclass(frozen=True)
class BoundRecord:
    epsilon: float
    bound: float
    heuristic: bool


@dataclass
class SolveResult:
    front: list[FrontEntry]
    bounds: list[BoundRecord]
    epsilons: list[float]
    multiplier_trace: list[tuple]


# ---------------------------------------------------------------------------
# feasibility repair
# ---------------------------------------------------------------------------


def repair_solution(solution: Solution, scenario: Scenario, tables: DerivedTables) -> Solution:
    """Deterministic bridge from a relaxed plan to a feasible one: close
    stations left without backhaul, then trim chain loads to their limits by
    dropping the farthest assigned subareas first."""
    sol = solution.copy()
    plan = sol.plan

    links = {"sbs": plan.sbs_parent, "ma": plan.ma_parent}
    stranded = {(kind, i) for kind, i in sol.deployment.sites if kind != "ban" and i not in links[kind]}
    sol.deployment = Deployment(sol.deployment.sites - stranded)

    for s in [s for s, i in plan.sbs_cover.items() if i not in plan.sbs_parent]:
        del plan.sbs_cover[s]

    attached = list(plan.sbs_parent)
    if not attached:
        return sol
    depth = {i: len(root_path(plan, i)) - 1 for i in attached}
    children: dict[int, list[int]] = {i: [] for i in attached}
    for i, (kind, p) in plan.sbs_parent.items():
        if kind == "sbs":
            children.setdefault(p, []).append(i)

    def subtree(i: int) -> list[int]:
        out = [i]
        stack = list(children[i])
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(children[u])
        return out

    assigned: dict[int, list[int]] = {i: [] for i in attached}
    for s, i in plan.sbs_cover.items():
        assigned[i].append(s)

    for i in sorted(attached, key=lambda u: (-depth[u], u)):
        limit = tables.sbs_limit(plan.sbs_parent[i], i)
        nodes = subtree(i)
        load = sum(len(assigned[u]) for u in nodes)
        while load > limit:
            worst = None
            for u in nodes:
                for s in assigned[u]:
                    key = (tables.sbs_subarea_m[u][s], s)
                    if worst is None or key > worst[0]:
                        worst = (key, u, s)
            _, u, s = worst
            assigned[u].remove(s)
            del plan.sbs_cover[s]
            load -= 1
    return sol


# ---------------------------------------------------------------------------
# front maintenance
# ---------------------------------------------------------------------------


def merge_front(front: list[FrontEntry], entry: FrontEntry) -> tuple[list[FrontEntry], Optional[FrontEntry]]:
    """Insert if nondominated; drop existing entries the new one dominates."""
    for e in front:
        if dominates(e.objectives, entry.objectives):
            return front, None
        if (
            e.objectives.cost == entry.objectives.cost
            and e.objectives.weighted_uncovered == entry.objectives.weighted_uncovered
        ):
            return front, None
    kept = [e for e in front if not dominates(entry.objectives, e.objectives)]
    kept.append(entry)
    kept.sort(key=lambda e: (e.objectives.cost, e.objectives.weighted_uncovered))
    return kept, entry


def update_epsilon(found: list[FrontEntry], epsilon: float, delta_c: float) -> float:
    """Next budget: just below the cheapest cost discovered this iteration,
    or one step down when the iteration came up empty."""
    if not found:
        return epsilon - delta_c
    return min(min(e.objectives.cost for e in found), epsilon) - delta_c


# ---------------------------------------------------------------------------
# the solve loop
# ---------------------------------------------------------------------------


def _violation_norm(g: list[float]) -> float:
    return math.sqrt(sum(x * x for x in g if x > 0))


def best_within(points: list[tuple[float, float]], epsilon: float) -> Optional[float]:
    """Least weighted uncoverage among (cost, fc) points within a budget."""
    return min((fc for f1, fc in points if f1 <= epsilon + TOLERANCE), default=None)


class _FrontSearch:
    """Two-level deployment search harvesting feasible nondominated solutions
    with cost inside [budget - window, budget]."""

    def __init__(self, ws: Workspace, budget: float, window: float, params: SearchParams, rng: random.Random):
        self.ws = ws
        self.budget = budget
        self.low = budget - window
        self.params = params
        self.rng = rng
        self.zero = zero_multipliers(ws.scenario)
        self.cache: dict = {}

    def evaluate(self, deployment: Deployment):
        key = deployment.sites
        if key in self.cache:
            return self.cache[key]
        ws = self.ws
        result = ws.build_plan(deployment, self.zero)
        repaired = repair_solution(Solution(deployment, result.plan), ws.scenario, ws.tables)
        obj = objectives(repaired, ws.scenario, ws.theta)
        out = None
        if obj.cost <= self.budget + TOLERANCE and not check_feasibility(repaired, ws.scenario, ws.tables):
            out = (repaired, obj)
        self.cache[key] = out
        return out

    def in_window(self, obj: ObjectiveVector) -> bool:
        return self.low - TOLERANCE <= obj.cost <= self.budget + TOLERANCE

    def run(self, start: Deployment, front: list[FrontEntry]) -> tuple[list[FrontEntry], list[FrontEntry]]:
        found: list[FrontEntry] = []
        # strict dominance is transitive and merge_front drops only dominated
        # entries, so offering a result again in one run is a no-op: each
        # deployment is offered once
        offered: set = set()

        def add(dep: Deployment, res: tuple[Solution, ObjectiveVector]) -> None:
            nonlocal front
            if dep.sites not in offered:
                offered.add(dep.sites)
                front, added = merge_front(front, FrontEntry(*res, self.budget))
                if added:
                    found.append(added)

        def harvest(dep: Deployment, *_) -> None:
            res = self.evaluate(dep)
            if res and self.in_window(res[1]):
                add(dep, res)

        def rank(candidates) -> list:
            """Merge every in-window candidate that the front does not
            dominate, and return [mark, entries, live, fresh]: the feasible
            candidates as (fc, cost, n, move, objectives) in ascending order,
            the merged ones, len(found) before the merges and True until the
            first visit."""
            mark, entries, live, merges = len(found), [], [], []
            for n, (move, dep) in enumerate(candidates):
                res = self.evaluate(dep)
                if res is not None:
                    obj = res[1]
                    entry = (obj.weighted_uncovered, obj.cost, n, move, obj)
                    entries.append(entry)
                    if self.in_window(obj) and not any(dominates(e.objectives, obj) for e in front):
                        live.append(entry)
                        merges.append((dep, res))
            for dep, res in merges:
                add(dep, res)
            entries.sort()  # n is unique, so no move or objective is ever compared
            live.sort()
            return [mark, entries, live, True]

        def choose(outer, inner, ranking, is_tabu):
            """Move to the least (fc, cost, n) live candidate that is not
            tabu, or else to such a feasible candidate. Each visit after the
            first re-tests the live candidates, and only against the entries
            found since the last test (the list's own merges included): one
            that was not dominated then is dominated now iff such an entry
            dominates it."""
            mark, entries, live, fresh = ranking
            if fresh:
                ranking[3] = False
            elif len(found) > mark:
                since = found[mark:]
                live = ranking[2] = [e for e in live if not any(dominates(f.objectives, e[4]) for f in since)]
                ranking[0] = len(found)
            for pool in (live, entries):
                for entry in pool:
                    if not is_tabu(entry[3]):
                        return entry[2]
            return None

        # the front search counts no site frequencies, so its diversification
        # opens the first closed station sites in (kind, index) order
        end = tabu.two_level_search(start, self.budget, self.ws, self.params, self.rng, {}, rank, choose, harvest)
        harvest(end)
        return front, found


def solve(
    scenario: Scenario,
    tables: DerivedTables,
    params: SolveParams = SolveParams(),
) -> SolveResult:
    """Full budget sweep; returns the accumulated front and per-budget
    lower bounds."""
    ws = Workspace(scenario, tables, params.theta, params.restrict)
    theta = ws.theta

    epsilon0 = ws.deployment_cost(Deployment(frozenset(ws.site_cost)))  # every site the restriction allows
    window = params.delta_eps
    if window is None:
        site_costs = [s.cost for s in scenario.ban_sites + scenario.sbs_sites + scenario.ma_sites]
        window = max(site_costs) if site_costs else 0.0

    empty = Solution.empty(scenario)
    front: list[FrontEntry] = [FrontEntry(empty, objectives(empty, scenario, theta), epsilon0)]
    raw_bounds: list[float] = []
    epsilons: list[float] = []
    trace: list[tuple] = []

    min_ban_cost = min((s.cost for s in scenario.ban_sites), default=math.inf)
    epsilon = epsilon0
    iteration = 0
    # budgets down to and including the cheapest anchor are explored
    while epsilon >= min_ban_cost - TOLERANCE:
        if params.max_iterations is not None and iteration >= params.max_iterations:
            break
        epsilons.append(epsilon)
        ws.clear_plans()
        multipliers: Multipliers = zero_multipliers(scenario)
        best_upper = best_within(front_points(front), epsilon)
        if best_upper is None:
            best_upper = scenario.n_subareas + theta * scenario.n_machines

        round_solutions: list[Solution] = []
        round_values: list[float] = []
        best_lower = -math.inf
        scale = 1.0
        stall = 0
        for r in range(params.n_lagrangian):
            search = dataclasses.replace(params.search, seed=params.search.seed + 7919 * iteration + r)
            sol, value = tabu.solve_relaxed(ws, multipliers, epsilon, search)
            round_solutions.append(sol)
            round_values.append(value)
            if value > best_lower + 1e-12:
                best_lower = value
                stall = 0
            else:
                stall += 1
                if stall >= 5:
                    scale *= 0.5
                    stall = 0
            lam_max = max(multipliers) if multipliers else 0.0
            g = subgradient(sol, tables)
            trace.append((iteration, r, epsilon, value, lam_max, _violation_norm(g)))
            multipliers = subgradient_update(multipliers, g, best_upper, value, scale)

        raw_bounds.append(max(round_values))

        found: list[FrontEntry] = []
        seen_deps = set()
        for sol in round_solutions:
            if sol.deployment.sites in seen_deps:
                continue
            seen_deps.add(sol.deployment.sites)
            repaired = repair_solution(sol, scenario, tables)
            obj = objectives(repaired, scenario, theta)
            if obj.cost <= epsilon + TOLERANCE and not check_feasibility(repaired, scenario, tables):
                front, added = merge_front(front, FrontEntry(repaired, obj, epsilon))
                if added:
                    found.append(added)

        # the front search starts from the round with the largest relaxed value
        start_idx = max(range(len(round_values)), key=lambda n: (round_values[n], -n))
        start = round_solutions[start_idx].deployment

        rng = random.Random(params.search.seed + 104729 * iteration + 31)
        front, nd_found = _FrontSearch(ws, epsilon, window, params.search, rng).run(start, front)
        found.extend(nd_found)

        next_epsilon = update_epsilon(found, epsilon, params.delta_c)
        if next_epsilon > epsilon - params.delta_c + 1e-12:
            raise RuntimeError("budget sweep failed to decrease")
        epsilon = next_epsilon
        iteration += 1

    # an under-solved relaxed problem can report a value above a feasible
    # one, found at this budget or a later, cheaper one; each published bound
    # is clamped to the best value of the final front within its budget, so it
    # never contradicts the front (it stays flagged as heuristic)
    points = front_points(front)
    bounds = []
    for epsilon, bound in zip(epsilons, raw_bounds):
        best = best_within(points, epsilon)
        bounds.append(BoundRecord(epsilon, bound if best is None else min(bound, best), True))
    return SolveResult(front, bounds, epsilons, trace)


# ---------------------------------------------------------------------------
# gap reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapRow:
    epsilon: float
    best_fc: float
    bound: float
    ratio: Optional[float]
    heuristic: bool


@dataclass
class GapReport:
    rows: list[GapRow]
    max_ratio: Optional[float]
    skipped: list[float]


def front_points(front: list[FrontEntry]) -> list[tuple[float, float]]:
    """(cost, weighted uncoverage) of each front entry."""
    return [(e.objectives.cost, e.objectives.weighted_uncovered) for e in front]


def gap_report(points: list[tuple[float, float]], bounds: list[BoundRecord]) -> GapReport:
    """Best feasible value within each budget against that budget's bound;
    ``points`` are the front's (cost, weighted uncoverage) pairs."""
    rows: list[GapRow] = []
    skipped: list[float] = []
    for rec in bounds:
        best = best_within(points, rec.epsilon)
        if best is None or rec.bound <= 0:
            skipped.append(rec.epsilon)
            continue
        rows.append(GapRow(rec.epsilon, best, rec.bound, best / rec.bound, rec.heuristic))
    ratios = [r.ratio for r in rows if r.ratio is not None]
    return GapReport(rows, max(ratios) if ratios else None, skipped)
