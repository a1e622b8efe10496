"""Shared instance builders for the test suite."""

from __future__ import annotations

import contextlib
import inspect
import math
import random

from backhaul_planner import (
    DerivedTables,
    GenParams,
    LinkClassParams,
    RadioConfig,
    Scenario,
    derive_tables,
    generate_scenario,
)
from backhaul_planner.scenario import snr_below_probability

# Wide-band, higher-power radio for small test areas: coverage radii around
# 20 m and live backhaul links across a 50 m box.
TINY_RADIO = RadioConfig(
    access=LinkClassParams(2.0, 3.3, 5.2, 7.6, 5e9),
    backhaul=LinkClassParams(2.0, 3.5, 4.2, 7.9, 5e9),
    ban_tx_dbm=40.0,
    sbs_tx_dbm=40.0,
    user_density_per_m2=2e-5,
    machine_limit=6,
    ma_range_m=25.0,
)

_tables_cache: dict = {}


def cached_tables(scenario: Scenario) -> DerivedTables:
    hit = _tables_cache.get(scenario)
    if hit is None:
        hit = derive_tables(scenario)
        _tables_cache[scenario] = hit
    return hit


def tiny_gen_params(
    rng: random.Random,
    n_ban=None,
    n_sbs=None,
    n_ma=None,
    n_machines=None,
    busy: bool = False,
) -> GenParams:
    """Oracle-sized instance; ``busy`` raises the user density so backhaul
    subarea limits actually bind."""
    radio = TINY_RADIO
    if busy:
        radio = RadioConfig(
            **{
                **{f: getattr(TINY_RADIO, f) for f in TINY_RADIO.__dataclass_fields__},
                "user_density_per_m2": 2e-4,
            }
        )
    return GenParams(
        width=50.0,
        height=50.0,
        subarea_side=10.0,
        n_ban=rng.randint(1, 3) if n_ban is None else n_ban,
        n_sbs=rng.randint(1, 3) if n_sbs is None else n_sbs,
        n_ma=rng.randint(0, 2) if n_ma is None else n_ma,
        n_machines=rng.randint(0, 12) if n_machines is None else n_machines,
        machine_rate_bps=5e4,
        ban_slots=rng.randint(2, 5),
        max_relays=2,
        radio=radio,
    )


def tiny_instance(seed: int, **kwargs) -> tuple[Scenario, DerivedTables]:
    rng = random.Random(seed)
    scenario = generate_scenario(tiny_gen_params(rng, **kwargs), seed)
    return scenario, cached_tables(scenario)


def mid_gen_params(seed: int) -> GenParams:
    """200 m box with 3/15/8 sites and 400 machines."""
    return GenParams(
        width=200.0,
        height=200.0,
        subarea_side=10.0,
        n_ban=3,
        n_sbs=15,
        n_ma=8,
        n_machines=400,
        machine_rate_bps=5e4,
        ban_slots=5,
        max_relays=2,
        radio=RadioConfig(
            ban_tx_dbm=40.0,
            sbs_tx_dbm=40.0,
            machine_limit=100,
            ma_range_m=60.0,
        ),
    )


def closed_form_radius(tx_dbm: float, noise_dbm: float, snr_db: float, exponent: float, fspl_db: float) -> float:
    """Range where the deterministic SNR crosses the threshold (no shadowing,
    no blockage)."""
    return 10 ** ((tx_dbm - noise_dbm - snr_db - fspl_db) / (10.0 * exponent))


def reference_effective_snr_db(radio: RadioConfig, distance_m: float, link, reliability_outage: float) -> float:
    """The SNR quantile by the plain 64-step bisection, calling
    ``snr_below_probability`` (distance terms included) at every step."""
    lo, hi = -300.0, 300.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if snr_below_probability(radio, distance_m, link, mid) < reliability_outage:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def poisson_tail_oracle(mean: float, allowed: int) -> float:
    """P(K > allowed) for K ~ Poisson(mean), direct summation."""
    term = math.exp(-mean)
    cdf = term
    for k in range(1, allowed + 1):
        term *= mean / k
        cdf += term
    return 1.0 - cdf


def random_deployment(rng: random.Random, scenario: Scenario, open_p: float = 0.6):
    from backhaul_planner import Deployment

    def chosen(n):
        return [i for i in range(n) if rng.random() < open_p]

    return Deployment.of(
        scenario, chosen(len(scenario.ban_sites)), chosen(len(scenario.sbs_sites)), chosen(len(scenario.ma_sites))
    )


def random_multipliers(rng: random.Random, scenario: Scenario, style: str = "mixed"):
    """Multiplier draws: zeros, small, or a mix including values above 1."""
    n = len(scenario.sbs_sites)
    if style == "zero":
        return (0.0,) * n
    if style == "small":
        return tuple(rng.uniform(0.0, 0.6) for _ in range(n))
    return tuple(rng.choice((0.0, rng.uniform(0, 0.5), rng.uniform(0.5, 1.8))) for _ in range(n))


def random_solution(rng: random.Random, scenario: Scenario, tables) -> "Solution":
    """Structurally valid random solution with an arbitrary (possibly
    branching) backhaul forest, random in-range coverage and machine links."""
    from backhaul_planner import ConnectionPlan, Solution

    dep = random_deployment(rng, scenario)
    plan = ConnectionPlan()
    open_bans = dep.open_bans()
    covered: set[int] = set()

    if open_bans:
        for s in range(scenario.n_subareas):
            cands = [k for k in open_bans if s in tables.ban_reach[k]]
            if cands and rng.random() < 0.7:
                plan.ban_cover[s] = rng.choice(cands)
                covered.add(s)

    max_hops = scenario.max_relays + 1
    depth: dict[int, int] = {}
    if open_bans:
        order = dep.open_sbss()
        rng.shuffle(order)
        for i in order:
            parents = [("ban", k) for k in open_bans]
            parents += [("sbs", p) for p in depth if depth[p] < max_hops]
            if not parents or rng.random() < 0.15:
                continue  # leave it stranded sometimes
            kind, idx = rng.choice(sorted(parents))
            plan.sbs_parent[i] = (kind, idx)
            depth[i] = 1 if kind == "ban" else depth[idx] + 1
        for i in sorted(depth):
            reach = [s for s in tables.sbs_reach[i] if s not in covered]
            rng.shuffle(reach)
            for s in reach[: rng.randint(0, 4)]:
                plan.sbs_cover[s] = i
                covered.add(s)

        taken: set[int] = set()
        for j in dep.open_mas():
            if rng.random() < 0.2:
                continue
            plan.ma_parent[j] = rng.choice(open_bans)
            free = [m for m in tables.ma_reach[j] if m not in taken]
            for m in free[: rng.randint(0, scenario.radio.machine_limit)]:
                plan.machine_cover[m] = j
                taken.add(m)

    # stranded stations stay deployed: the relaxed evaluation must cope
    return Solution(dep, plan)


def random_path_state(rng: random.Random, scenario: Scenario, tables, multipliers):
    """Mid-construction assignment state reached by applying random legal
    moves; returns (workspace, deployment, state, unattached)."""
    from backhaul_planner.lagrangian import (
        PathState,
        Workspace,
        _anchor_phase,
        apply_move,
        delta_attach_ban,
        delta_insert_after,
        delta_insert_before,
    )

    ws = Workspace(scenario, tables)
    dep = random_deployment(rng, scenario)
    anchor = _anchor_phase(ws, dep)
    state = PathState(ws, multipliers, anchor)
    unattached = dep.open_sbss()
    rng.shuffle(unattached)
    attach_count = rng.randint(0, len(unattached))
    attached = []
    for _ in range(attach_count):
        i = unattached[0]
        avail = state.uncovered_in_reach(i)
        moves = []
        for k in dep.open_bans():
            move = delta_attach_ban(state, i, k, avail)
            if move:
                moves.append(move)
        for p in attached:
            for maker in (delta_insert_before, delta_insert_after):
                move = maker(state, i, p, avail)
                if move:
                    moves.append(move)
        if not moves:
            break
        apply_move(state, rng.choice(moves))
        attached.append(i)
        unattached.pop(0)
    return ws, dep, state, unattached


def state_solution(dep, state) -> "Solution":
    from backhaul_planner import ConnectionPlan, Solution

    plan = ConnectionPlan(
        ban_cover=dict(state.ban_cover),
        sbs_cover=dict(state.sbs_cover),
        sbs_parent=dict(state.parent),
        ma_parent={},
        machine_cover={},
    )
    return Solution(dep, plan)


def reference_assign(ws, deployment, multipliers):
    """The connection assignment as a full rescan: every step recomputes
    every BAN attach and every insert move of every unattached SBS. Kept as
    the reference the incremental ``lagrangian._assign`` must reproduce."""
    from backhaul_planner import ConnectionPlan
    from backhaul_planner.lagrangian import (
        AssignResult,
        Move,
        PathState,
        _anchor_phase,
        apply_move,
        delta_attach_ban,
        delta_insert_after,
        delta_insert_before,
    )

    scenario = ws.scenario
    anchor = _anchor_phase(ws, deployment)
    state = PathState(ws, multipliers, anchor)
    theta = ws.theta

    value = (
        scenario.n_subareas
        + theta * scenario.n_machines
        - len(anchor.ban_cover)
        - theta * len(anchor.machine_cover)
    )

    unattached = [i for i in deployment.open_sbss() if ws.allow_stations]
    open_bans = deployment.open_bans()
    attached: list[int] = []

    while unattached:
        best: Move | None = None
        for i in unattached:
            avail = state.uncovered_in_reach(i)
            for k in open_bans:
                move = delta_attach_ban(state, i, k, avail)
                if move and (best is None or move.sort_key() < best.sort_key()):
                    best = move
            for p in attached:
                for maker in (delta_insert_before, delta_insert_after):
                    move = maker(state, i, p, avail)
                    if move and (best is None or move.sort_key() < best.sort_key()):
                        best = move
        if best is None:
            break
        apply_move(state, best)
        value += best.delta
        unattached.remove(best.sbs)
        attached.append(best.sbs)

    plan = ConnectionPlan(
        ban_cover=dict(state.ban_cover),
        sbs_cover=dict(state.sbs_cover),
        sbs_parent=dict(state.parent),
        ma_parent=dict(anchor.ma_parent),
        machine_cover=dict(anchor.machine_cover),
    )
    return AssignResult(plan, value)


def reference_diversify(deployment, ws, budget, frequency, params, rng):
    """``tabu._diversify`` as a rescan: each pass of the closing loop sorts
    the closable stations again and prices the deployment by ``model.cost``.
    Kept as the reference the one-list loop must reproduce, down to the
    random draws."""
    from backhaul_planner import Deployment, cost
    from backhaul_planner.scenario import TOLERANCE

    sites = ws.sites["station"]
    opened = sorted(
        (s for s in sites if s not in deployment.sites),
        key=lambda s: (frequency.get(s, 0), s),
    )[: params.n_div]
    dep = Deployment(deployment.sites.union(opened))
    while cost(dep, ws.scenario) > budget + TOLERANCE:
        closable = sorted(s for s in sites if s in dep.sites and s not in opened)
        if closable:
            dep = Deployment(dep.sites - {rng.choice(closable)})
            continue
        if not opened:
            break
        dep = Deployment(dep.sites - {opened.pop()})
    return dep


def reference_front_run(search, start, front):
    """``pareto._FrontSearch.run`` as a rescan: every visit of a candidate
    list evaluates each candidate, tests it against the whole front and
    offers every qualifying one to ``merge_front`` again, and every harvest
    offers its deployment. Kept as the reference for the ranked lists."""
    from backhaul_planner import pareto, tabu
    from backhaul_planner.model import dominates

    found = []

    def add(sol, obj):
        nonlocal front
        front, added = pareto.merge_front(front, pareto.FrontEntry(sol, obj, search.budget))
        if added:
            found.append(added)

    def harvest(dep, *_):
        res = search.evaluate(dep)
        if res and search.in_window(res[1]):
            add(*res)

    def choose(outer, inner, candidates, is_tabu):
        entries = []
        for n, (move, dep) in enumerate(candidates):
            res = search.evaluate(dep)
            if res is not None:
                obj = res[1]
                qualifies = search.in_window(obj) and not any(dominates(e.objectives, obj) for e in front)
                entries.append((n, move, res, qualifies))
        for _, _, res, qualifies in entries:
            if qualifies:
                add(*res)
        allowed = [
            (obj.weighted_uncovered, obj.cost, n, qualifies)
            for n, move, (_, obj), qualifies in entries
            if not is_tabu(move)
        ]
        pool = [key for key in allowed if key[3]] or allowed
        return min(pool)[2] if pool else None

    end = tabu.two_level_search(
        start, search.budget, search.ws, search.params, search.rng, {}, lambda candidates: candidates, choose, harvest
    )
    harvest(end)
    return front, found


@contextlib.contextmanager
def recorded_searches():
    """Record every ``tabu.two_level_search`` run inside the block.

    Yields a list that gets one path per run: its steps in order, as
    ``("visit", outer, inner, sites)``, ``("choose", outer, inner, n)`` with
    what ``choose`` returned, ``("diversified", sites)`` and, last,
    ``("end", sites)``, each ``sites`` a sorted list of site keys. Only the
    ``choose``, ``visit`` and ``diversified`` callbacks are wrapped, found by
    name, so the search runs as it would unrecorded.
    """
    from backhaul_planner import tabu

    search, paths = tabu.two_level_search, []

    def recording(*args, **kwargs):
        bound = inspect.signature(search).bind(*args, **kwargs)
        bound.apply_defaults()
        callbacks, path = dict(bound.arguments), []
        paths.append(path)

        def choose(outer, inner, *rest):
            n = callbacks["choose"](outer, inner, *rest)
            path.append(("choose", outer, inner, n))
            return n

        def visit(dep, outer, inner):
            path.append(("visit", outer, inner, sorted(dep.sites)))
            callbacks["visit"](dep, outer, inner)

        def diversified(dep):
            path.append(("diversified", sorted(dep.sites)))
            callbacks["diversified"](dep)

        bound.arguments.update(choose=choose, visit=visit, diversified=diversified)
        end = search(*bound.args, **bound.kwargs)
        path.append(("end", sorted(end.sites)))
        return end

    tabu.two_level_search = recording
    try:
        yield paths
    finally:
        tabu.two_level_search = search


def stood_on(path) -> list:
    """Every deployment a recorded search stood on: each visit (the first is
    its start), each diversification and its end."""
    from backhaul_planner import Deployment

    return [Deployment(frozenset(step[-1])) for step in path if step[0] in ("visit", "diversified", "end")]
