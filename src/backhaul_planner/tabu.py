"""Two-level tabu search over deployment variables.

The outer level moves anchor (BAN) deployments with stations frozen; the
inner level moves SBS/MA deployments jointly. Moves are open/close/swap on
candidate sites within the budget. Short-term memory is attribute-based
(touched sites become tabu for a tenure), and a restart diversification
re-opens rarely used station sites when a station step picks no move.

``two_level_search`` is the one search loop. Its two users differ only in
how they rank a neighbourhood and pick from that ranking: ``solve_relaxed``
prices each candidate through the greedy connection assignment under the
multipliers, with aspiration on strict incumbent improvement; the Pareto
front search (``pareto._FrontSearch``) ranks repaired feasible candidates.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from .lagrangian import Multipliers, Workspace
from .model import Deployment, SiteKey, Solution
from .scenario import TOLERANCE, ConfigFieldError, check_fields


_SEARCH_RULES = {
    **dict.fromkeys(("n_outer", "n_inner", "n_div"), {"integer": True, "minimum": 1}),
    "n_swap": {"integer": True, "minimum": 0, "optional": True},
    **dict.fromkeys(("tenure_ban", "tenure_station"), {"integer": True, "minimum": 0}),
    "seed": {"integer": True},
}


@dataclass(frozen=True)
class SearchParams:
    n_outer: int = 10
    n_inner: int = 12
    n_div: int = 2
    n_swap: Optional[int] = None  # cap on generated swap moves; None = all
    tenure_ban: int = 7
    tenure_station: int = 10
    seed: int = 0

    def __post_init__(self):
        check_fields("search", self, _SEARCH_RULES, ConfigFieldError)
        if self.tenure_ban >= self.n_outer or self.tenure_station >= self.n_inner:
            raise ValueError("tenures must stay below their iteration budgets")


@dataclass(frozen=True)
class SiteMove:
    action: str  # "open" | "close" | "swap"
    sites: tuple[SiteKey, ...]


class TabuState:
    """The sites a move may not touch: a marked site stays tabu for
    ``tenure`` ticks of the clock. The clock never decreases and the tenure
    is fixed, so marks expire in the order they were made."""

    def __init__(self, tenure: int):
        self.tenure = tenure
        self.expiry: dict[SiteKey, int] = {}  # the tabu sites, each with its last mark's expiry
        self._marks: deque[tuple[int, SiteKey]] = deque()  # (expiry, site) in mark order
        tabu = self.expiry.keys()
        self._is_tabu = lambda move: not tabu.isdisjoint(move.sites)

    def test(self, clock: int) -> Callable[[SiteMove], bool]:
        """One step's test: a move is tabu if a site of it expires after
        ``clock``. It reads the live state, so call it before the step's mark."""
        marks, expiry = self._marks, self.expiry
        while marks and marks[0][0] <= clock:
            end, site = marks.popleft()
            if expiry.get(site) == end:  # not marked again since
                del expiry[site]
        return self._is_tabu

    def mark(self, move: SiteMove, clock: int) -> None:
        end = clock + self.tenure
        for site in move.sites:
            self.expiry[site] = end
            self._marks.append((end, site))

    def clear(self) -> None:
        self.expiry.clear()
        self._marks.clear()


def apply_move(deployment: Deployment, move: SiteMove) -> Deployment:
    """Flip the move's sites: an open adds its site, a close removes it, and
    a swap removes the open first site and adds the closed second one."""
    return Deployment(deployment.sites.symmetric_difference(move.sites))


def initial_deployment(ws: Workspace, budget: float) -> Deployment:
    """Cheapest-first fill: anchors while they fit, then stations, always
    keeping the total cost within the budget."""
    dep = Deployment.empty(ws.scenario)
    total = 0.0
    site_cost = ws.site_cost
    while total < budget:
        for level in ("ban", "station"):
            closed = [s for s in ws.sites[level] if s not in dep.sites]
            pick = min(closed, key=lambda s: (site_cost[s], s), default=None)
            if pick is not None and total + site_cost[pick] <= budget:
                dep = Deployment(dep.sites | {pick})
                total += site_cost[pick]
                break
        else:
            break
    return dep


def neighborhood(
    deployment: Deployment,
    level: str,
    budget: float,
    ws: Workspace,
    n_swap: Optional[int] = None,
) -> list[tuple[SiteMove, Deployment]]:
    """All open/close/swap moves at one level whose result stays within
    budget, in a fixed order (opens, closes, swaps; each by site index)."""
    sites, site_cost = ws.sites[level], ws.site_cost
    base = ws.deployment_cost(deployment)
    open_sites = deployment.sites
    moves: list[SiteMove] = []
    for site in sites:
        if site not in open_sites and base + site_cost[site] <= budget + TOLERANCE:
            moves.append(SiteMove("open", (site,)))
    for site in sites:
        if site in open_sites:
            moves.append(SiteMove("close", (site,)))
    swaps: list[SiteMove] = []
    for closing in sites:
        if closing not in open_sites:
            continue
        for opening in sites:
            if opening in open_sites:
                continue
            if base - site_cost[closing] + site_cost[opening] <= budget + TOLERANCE:
                swaps.append(SiteMove("swap", (closing, opening)))
    if n_swap is not None:
        swaps = swaps[:n_swap]
    moves += swaps
    return [(m, apply_move(deployment, m)) for m in moves]


def _diversify(
    deployment: Deployment,
    ws: Workspace,
    budget: float,
    frequency: dict[SiteKey, int],
    params: SearchParams,
    rng: random.Random,
) -> Deployment:
    """Open the n_div least-frequently deployed station sites, closing random
    incumbents if needed to stay within budget."""
    sites = ws.sites["station"]
    ranked = sorted((frequency.get(s, 0), s) for s in sites if s not in deployment.sites)
    opened = [s for _, s in ranked[: params.n_div]]
    closable = sorted(s for s in sites if s in deployment.sites)  # the incumbents, sorted for the draws
    dep = Deployment(deployment.sites.union(opened))
    while ws.deployment_cost(dep) > budget + TOLERANCE:
        if closable:
            site = rng.choice(closable)
            closable.remove(site)
        elif opened:
            site = opened.pop()
        else:
            break
        dep = Deployment(dep.sites - {site})
    return dep


def two_level_search(
    start: Deployment,
    budget: float,
    ws: Workspace,
    params: SearchParams,
    rng: random.Random,
    frequency: dict[SiteKey, int],
    rank: Callable[[list[tuple[SiteMove, Deployment]]], Any],
    choose: Callable[..., Optional[int]],
    visit: Callable[[Deployment, int, int], None],
    diversified: Callable[[Deployment], None] = lambda dep: None,
) -> Deployment:
    """Run the two-level search from ``start`` and return where it ends.

    Each outer iteration takes one anchor step, then up to ``n_inner``
    station steps. A step calls ``visit(current, outer, inner)`` and takes
    its level's neighbourhood, a list of ``(move, deployment)`` candidates;
    ``choose(outer, inner, ranking, is_tabu)`` returns the index of the
    candidate to take, or None; ``inner`` is -1 at the anchor step. The taken
    move becomes tabu. A station step that picks nothing diversifies (by
    ``frequency``), clears the station memory and shows the result to
    ``diversified``. The anchor clock is the outer index; an empty station
    neighbourhood ends the inner loop without advancing the station clock.
    Each ``(sites, level)`` neighbourhood is built once per call (the budget,
    ``n_swap`` and ``ws`` are fixed) and, unless empty, ranked once by
    ``rank(candidates)``; every step at those sites hands that same ranking to
    ``choose``, which may update it in place.
    """
    anchors, stations = TabuState(params.tenure_ban), TabuState(params.tenure_station)
    built: dict[tuple[frozenset, str], tuple[list[tuple[SiteMove, Deployment]], Any]] = {}

    def neighbourhood_at(level: str) -> tuple[list[tuple[SiteMove, Deployment]], Any]:
        if (current.sites, level) not in built:
            candidates = neighborhood(current, level, budget, ws, params.n_swap)
            built[current.sites, level] = candidates, rank(candidates) if candidates else None
        return built[current.sites, level]

    current = start
    station_clock = 0
    for outer in range(params.n_outer):
        visit(current, outer, -1)
        candidates, ranking = neighbourhood_at("ban")
        if candidates:
            n = choose(outer, -1, ranking, anchors.test(outer))
            if n is not None:
                move, current = candidates[n]
                anchors.mark(move, outer)

        for inner in range(params.n_inner):
            visit(current, outer, inner)
            candidates, ranking = neighbourhood_at("station")
            if not candidates:
                break
            n = choose(outer, inner, ranking, stations.test(station_clock))
            if n is None:
                current = _diversify(current, ws, budget, frequency, params, rng)
                stations.clear()
                diversified(current)
            else:
                move, current = candidates[n]
                stations.mark(move, station_clock)
            station_clock += 1
    return current


def solve_relaxed(
    ws: Workspace,
    multipliers: Multipliers,
    budget: float,
    params: SearchParams,
) -> tuple[Solution, float]:
    """Best deployment found for the relaxed problem within the budget, with
    its greedy connection plan and relaxed value.

    The seed enters the result only through ``_diversify``'s draws; the rest
    is a pure function of the workspace, multipliers, budget and params. So a
    search that drew nothing is stored in the workspace (until
    ``clear_plans``) under those with the seed zeroed, and serves a later call
    with that key under any seed. The stored result is shared, so no caller
    may mutate it.
    """
    key = (multipliers, budget, replace(params, seed=0))
    hit = ws.relaxed_cache.get(key)
    if hit is not None:
        return hit
    start = initial_deployment(ws, budget)
    incumbent, incumbent_value = start, ws.evaluate(start, multipliers)
    station_sites = frozenset(ws.sites["station"])
    frequency: dict[SiteKey, int] = {}

    def visit(dep: Deployment, outer: int, inner: int) -> None:
        if inner >= 0:
            for site in station_sites.intersection(dep.sites):
                frequency[site] = frequency.get(site, 0) + 1

    def rank(candidates) -> list[tuple[float, int, SiteMove, Deployment]]:
        # n is unique, so no move or deployment is ever compared
        return sorted((ws.evaluate(dep, multipliers), n, move, dep) for n, (move, dep) in enumerate(candidates))

    def choose(outer, inner, order, is_tabu):
        nonlocal incumbent, incumbent_value
        best_value, n, _, best_dep = order[0]
        if best_value < incumbent_value:  # aspiration: strict improvement overrides tabu
            incumbent, incumbent_value = best_dep, best_value
            return n
        return next((n for _, n, move, _ in order if not is_tabu(move)), None)

    def diversified(dep: Deployment) -> None:
        nonlocal incumbent, incumbent_value
        value = ws.evaluate(dep, multipliers)
        if value < incumbent_value:
            incumbent, incumbent_value = dep, value

    rng = random.Random(params.seed)
    fresh = rng.getstate()
    two_level_search(start, budget, ws, params, rng, frequency, rank, choose, visit, diversified)
    result = ws.build_plan(incumbent, multipliers)
    solved = Solution(incumbent, result.plan), result.value
    if rng.getstate() == fresh:  # no draw, so every seed gives this
        ws.relaxed_cache[key] = solved
    return solved
