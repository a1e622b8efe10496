"""Shared instance builders for the test suite."""

from __future__ import annotations

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

    def bits(n):
        return tuple(1 if rng.random() < open_p else 0 for _ in range(n))

    return Deployment(
        bits(len(scenario.ban_sites)), bits(len(scenario.sbs_sites)), bits(len(scenario.ma_sites))
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

    unattached = [i for i in deployment.open_sbss() if ws.allow_sbs]
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
    return AssignResult(plan, value, tuple(sorted(unattached)), anchor.stranded_mas)
