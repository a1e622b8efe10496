"""Relaxed-problem machinery.

The per-SBS backhaul-load constraint is priced into the objective with
nonnegative multipliers. For a fixed deployment the connection variables are
chosen by a greedy local search: subareas in range of an open BAN are covered
by the nearest one, machine aggregators are attached to the BAN maximizing
machine pickup, and SBSs are attached one at a time by the smallest exact
change of the relaxed objective among direct-attach and chain-insertion
moves. Every candidate change is an exact delta: applying it and recomputing
the relaxed objective from scratch gives the same number.

The greedy step is incremental, with exact invalidation. Each unattached SBS
keeps its best move into every group: an open BAN (direct attach) or a chain
(insert before or after any of its nodes). A move's delta is a pure function
of three things only: its group's state (chain nodes with their assigned
subareas, or the BAN's slot count), the fixed multipliers, and the SBS's
count of uncovered subareas in reach (``avail``). A step changes one chain
and at most one BAN's slots, so only those groups and the groups of SBSs
whose ``avail`` changed are recomputed; every other cached delta is the
number a full rescan would compute, bit for bit. ``Move.sort_key`` totally
orders distinct moves, so the minimum over the cache is the move the full
rescan picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import ConnectionPlan, Deployment, IntegrityError, ParentRef, Solution, root_path, sbs_loads
from .scenario import DerivedTables, Scenario

Multipliers = tuple[float, ...]


def zero_multipliers(scenario: Scenario) -> Multipliers:
    return (0.0,) * len(scenario.sbs_sites)


@dataclass
class RelaxedValue:
    """Relaxed objective with its per-node decomposition."""

    value: float
    ban_terms: dict[int, float]
    sbs_terms: dict[int, float]
    covered_machines: int


# ---------------------------------------------------------------------------
# workspace: numpy adapters + memo caches shared by one solve
# ---------------------------------------------------------------------------


class Workspace:
    """Read-only solver view of a scenario plus pure-function memo caches.

    ``max_relays``/``allow_sbs``/``allow_ma`` express solve-time restrictions
    (e.g. single-hop backhaul or anchor-only deployments).
    """

    def __init__(
        self,
        scenario: Scenario,
        tables: DerivedTables,
        theta: Optional[float] = None,
        max_relays: Optional[int] = None,
        allow_sbs: bool = True,
        allow_ma: bool = True,
    ):
        self.scenario = scenario
        self.tables = tables
        self.theta = scenario.radio.mtc_weight if theta is None else theta
        self.max_hops = (scenario.max_relays if max_relays is None else max_relays) + 1
        self.allow_sbs = allow_sbs
        self.allow_ma = allow_ma

        self.n_sub = scenario.n_subareas
        self.n_mach = scenario.n_machines
        self.n_ban = len(scenario.ban_sites)
        self.n_sbs = len(scenario.sbs_sites)
        self.n_ma = len(scenario.ma_sites)

        self.ban_sub = np.asarray(tables.ban_subarea_m, dtype=float).reshape(self.n_ban, self.n_sub)
        self.sbs_reach_sorted = tables.sbs_reach
        self.ban_reach_sorted = tables.ban_reach
        self.sbs_reach_sets = [frozenset(r) for r in tables.sbs_reach]

        self.ban_in_range = np.zeros((self.n_ban, self.n_sub), dtype=bool)
        for k, reach in enumerate(tables.ban_reach):
            self.ban_in_range[k, list(reach)] = True
        self.sbs_mask = np.zeros((self.n_sbs, self.n_sub), dtype=bool)
        for i, reach in enumerate(tables.sbs_reach):
            self.sbs_mask[i, list(reach)] = True

        self.limit_ban_sbs = np.asarray(tables.ban_sbs_limit, dtype=int).reshape(self.n_ban, self.n_sbs)
        self.limit_sbs_sbs = np.asarray(tables.sbs_sbs_limit, dtype=int).reshape(self.n_sbs, self.n_sbs)
        self.cap_ban_ma = tables.ban_ma_capacity

        rates = np.array([m.rate_bps for m in scenario.machines], dtype=float)
        self.machine_rates = rates
        self.ma_sorted_idx: list[np.ndarray] = []
        for j in range(self.n_ma):
            reach = np.array(tables.ma_reach[j], dtype=int)
            if reach.size:
                order = np.lexsort((reach, rates[reach]))
                reach = reach[order]
            self.ma_sorted_idx.append(reach)

        self.ban_costs = [s.cost for s in scenario.ban_sites]
        self.sbs_costs = [s.cost for s in scenario.sbs_sites]
        self.ma_costs = [s.cost for s in scenario.ma_sites]

        self._anchor_cache: dict = {}
        self._value_cache: dict = {}

    def limit(self, parent: ParentRef, sbs: int) -> int:
        kind, idx = parent
        return int(self.limit_ban_sbs[idx, sbs] if kind == "ban" else self.limit_sbs_sbs[idx, sbs])

    def evaluate(self, deployment: Deployment, multipliers: Multipliers) -> float:
        """Memoized relaxed value of the greedy connection assignment."""
        key = (deployment.bans, deployment.sbss, deployment.mas, multipliers)
        hit = self._value_cache.get(key)
        if hit is None:
            hit = _assign(self, deployment, multipliers).value
            self._value_cache[key] = hit
        return hit

    def build_plan(self, deployment: Deployment, multipliers: Multipliers) -> "AssignResult":
        return _assign(self, deployment, multipliers)


# ---------------------------------------------------------------------------
# anchor phase: BAN coverage + machine aggregators (multiplier-independent)
# ---------------------------------------------------------------------------


@dataclass
class AnchorPhase:
    ban_cover: dict[int, int]
    covered: np.ndarray  # bool per subarea
    ma_parent: dict[int, int]
    machine_cover: dict[int, int]
    slots: dict[int, int]
    stranded_mas: tuple[int, ...]


def _anchor_phase(ws: Workspace, deployment: Deployment) -> AnchorPhase:
    key = (deployment.bans, deployment.mas)
    hit = ws._anchor_cache.get(key)
    if hit is not None:
        return hit

    scenario = ws.scenario
    open_bans = deployment.open_bans()
    ban_cover: dict[int, int] = {}
    covered = np.zeros(ws.n_sub, dtype=bool)
    if open_bans:
        dist = ws.ban_sub[open_bans].copy()
        dist[~ws.ban_in_range[open_bans]] = np.inf
        nearest = np.argmin(dist, axis=0)
        reachable = np.isfinite(dist[nearest, np.arange(ws.n_sub)])
        for s in np.flatnonzero(reachable):
            ban_cover[int(s)] = open_bans[int(nearest[s])]
        covered[reachable] = True

    slots = {k: 0 for k in open_bans}
    ma_parent: dict[int, int] = {}
    machine_cover: dict[int, int] = {}
    stranded: list[int] = []
    waiting = [j for j in deployment.open_mas() if ws.allow_ma]
    free = [k for k in open_bans if scenario.ban_slots > 0]
    mach_covered = np.zeros(ws.n_mach, dtype=bool)
    delta = scenario.radio.compression_ratio

    while waiting:
        if not free:
            stranded.extend(waiting)
            break
        best = None
        picks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for j in waiting:
            idx = ws.ma_sorted_idx[j]
            if idx.size:
                idx = idx[~mach_covered[idx]]
            cum = np.cumsum(ws.machine_rates[idx]) if idx.size else np.empty(0)
            picks[j] = (idx, cum)
            for k in free:
                budget = ws.cap_ban_ma[k][j] / delta + 1e-9
                count = min(
                    ws.tables.machine_limit,
                    int(np.searchsorted(cum, budget, side="right")),
                    idx.size,
                )
                cand = (-count, j, k)
                if best is None or cand < best:
                    best = cand
        count, j0, k0 = -best[0], best[1], best[2]
        idx, _ = picks[j0]
        chosen = idx[:count]
        ma_parent[j0] = k0
        for m in chosen:
            machine_cover[int(m)] = j0
        mach_covered[chosen] = True
        slots[k0] += 1
        waiting.remove(j0)
        if slots[k0] >= scenario.ban_slots:
            free.remove(k0)

    result = AnchorPhase(ban_cover, covered, ma_parent, machine_cover, slots, tuple(stranded))
    ws._anchor_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# path state over chains
# ---------------------------------------------------------------------------


@dataclass
class Chain:
    ban: int
    nodes: list[int] = field(default_factory=list)


class PathState:
    """Bookkeeping for the chain forest built by the connection assignment:
    per-SBS chain membership and hop, assigned subareas, anchor slot use."""

    def __init__(self, ws: Workspace, multipliers: Multipliers, anchor: AnchorPhase):
        self.ws = ws
        self.lam = multipliers
        self.covered = anchor.covered.copy()
        self.ban_cover = dict(anchor.ban_cover)
        self.sbs_cover: dict[int, int] = {}
        self.assigned: dict[int, list[int]] = {}
        self.parent: dict[int, ParentRef] = {}
        self.chain_of: dict[int, Chain] = {}
        self.slots = dict(anchor.slots)

    # -- queries ------------------------------------------------------------

    def r(self, i: int) -> int:
        return len(self.assigned.get(i, ()))

    def hop(self, i: int) -> int:
        return self.chain_of[i].nodes.index(i) + 1

    def ancestors(self, i: int) -> list[int]:
        chain = self.chain_of[i]
        return chain.nodes[: chain.nodes.index(i)]

    def descendants(self, i: int) -> list[int]:
        chain = self.chain_of[i]
        return chain.nodes[chain.nodes.index(i) + 1 :]

    def uncovered_in_reach(self, i: int) -> int:
        return int(np.count_nonzero(self.ws.sbs_mask[i] & ~self.covered))

    def uncovered_counts(self, sbss: list[int]) -> list[int]:
        """``uncovered_in_reach`` of every station in ``sbss`` in one pass."""
        return (self.ws.sbs_mask[sbss] & ~self.covered).sum(axis=1).tolist()

    # -- mutations ----------------------------------------------------------

    def attach_to_ban(self, i: int, k: int, r_new: int) -> None:
        chain = Chain(k, [i])
        self.chain_of[i] = chain
        self.parent[i] = ("ban", k)
        self.slots[k] = self.slots.get(k, 0) + 1
        self._cover(i, r_new, freed=())

    def insert(self, i: int, p: int, before: bool, r_new: int, drops: list[int]) -> None:
        chain = self.chain_of[p]
        pos = chain.nodes.index(p)
        freed: list[int] = []
        for u in drops:
            for s in self.assigned.get(u, ()):
                self.covered[s] = False
                del self.sbs_cover[s]
                freed.append(s)
            self.assigned[u] = []
        if before:
            self.parent[i] = self.parent[p]
            self.parent[p] = ("sbs", i)
            chain.nodes.insert(pos, i)
        else:
            self.parent[i] = ("sbs", p)
            if pos + 1 < len(chain.nodes):
                self.parent[chain.nodes[pos + 1]] = ("sbs", i)
            chain.nodes.insert(pos + 1, i)
        self.chain_of[i] = chain
        self._cover(i, r_new, freed)

    def _cover(self, i: int, r_new: int, freed) -> None:
        chosen = self.assigned.setdefault(i, [])
        if r_new <= 0:
            return
        for s in self.ws.sbs_reach_sorted[i]:
            if not self.covered[s]:
                self.covered[s] = True
                self.sbs_cover[s] = i
                chosen.append(s)
                if len(chosen) >= r_new:
                    break
        if len(chosen) != r_new:
            raise IntegrityError(f"sbs {i}: planned {r_new} subareas, found {len(chosen)}")


# ---------------------------------------------------------------------------
# exact move deltas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    delta: float
    sbs: int
    kind: str  # "ban" | "before" | "after"
    partner: int
    r_new: int
    drops: tuple[int, ...] = ()

    def sort_key(self):
        return (self.delta, self.sbs, _KIND_RANK[self.kind], self.partner)


_KIND_RANK = {"ban": 0, "before": 1, "after": 2}


def delta_attach_ban(state: PathState, i: int, k: int, avail: int) -> Optional[Move]:
    """Exact relaxed-objective change of starting a new chain k -> i."""
    if state.slots.get(k, 0) >= state.ws.scenario.ban_slots:
        return None
    lam_i = state.lam[i]
    cap = int(state.ws.limit_ban_sbs[k, i])
    r_new = 0 if lam_i > 1 else min(cap, avail)
    dv = (lam_i - 1) * r_new - lam_i * cap
    return Move(dv, i, "ban", k, r_new)


def _insert_delta(state: PathState, i: int, p: int, before: bool, avail: int) -> Optional[Move]:
    ws, lam = state.ws, state.lam
    chain = state.chain_of[p]
    if len(chain.nodes) >= ws.max_hops:
        return None
    lam_i = lam[i]
    pos = chain.nodes.index(p)
    prefix = [0.0]
    for u in chain.nodes:
        prefix.append(prefix[-1] + lam[u])

    if before:
        if pos == 0:
            n_parent_i = int(ws.limit_ban_sbs[chain.ban, i])
            n_parent_p = int(ws.limit_ban_sbs[chain.ban, p])
        else:
            a = chain.nodes[pos - 1]
            n_parent_i = int(ws.limit_sbs_sbs[a, i])
            n_parent_p = int(ws.limit_sbs_sbs[a, p])
        downstream = chain.nodes[pos:]
        prefix_i = prefix[pos]
        dv = lam[p] * (n_parent_p - int(ws.limit_sbs_sbs[i, p])) - lam_i * n_parent_i
        cap_i = n_parent_i
    else:
        downstream = chain.nodes[pos + 1 :]
        prefix_i = prefix[pos + 1]
        cap_i = int(ws.limit_sbs_sbs[p, i])
        dv = -lam_i * cap_i
        if downstream:
            q = downstream[0]
            dv += lam[q] * (int(ws.limit_sbs_sbs[p, q]) - int(ws.limit_sbs_sbs[i, q]))

    drops: list[int] = []
    freed_count = 0
    start = pos if before else pos + 1
    for off, u in enumerate(downstream):
        coeff_old = prefix[start + off] + lam[u] - 1.0
        r_u = state.r(u)
        if coeff_old + lam_i > 0:
            dv -= coeff_old * r_u
            drops.append(u)
            if r_u:
                reach = ws.sbs_reach_sets[i]
                freed_count += sum(1 for s in state.assigned[u] if s in reach)
        else:
            dv += lam_i * r_u

    coeff_i = prefix_i + lam_i - 1.0
    if coeff_i > 0:
        r_new = 0
    else:
        r_new = min(cap_i, avail + freed_count)
    dv += coeff_i * r_new
    return Move(dv, i, "before" if before else "after", p, r_new, tuple(drops))


def delta_insert_before(state: PathState, i: int, p: int, avail: int) -> Optional[Move]:
    """Exact delta of splicing ``i`` in as the new parent of ``p``."""
    return _insert_delta(state, i, p, before=True, avail=avail)


def delta_insert_after(state: PathState, i: int, p: int, avail: int) -> Optional[Move]:
    """Exact delta of splicing ``i`` in directly below ``p``."""
    return _insert_delta(state, i, p, before=False, avail=avail)


def apply_move(state: PathState, move: Move) -> None:
    if move.kind == "ban":
        state.attach_to_ban(move.sbs, move.partner, move.r_new)
    else:
        state.insert(move.sbs, move.partner, move.kind == "before", move.r_new, list(move.drops))


# ---------------------------------------------------------------------------
# the connection assignment
# ---------------------------------------------------------------------------


@dataclass
class AssignResult:
    plan: ConnectionPlan
    value: float
    stranded_sbss: tuple[int, ...]
    stranded_mas: tuple[int, ...]


# sort key of "no legal move"; above every real key, as deltas are finite
_NO_MOVE = (math.inf,)


def _group_move(state: PathState, i: int, group, avail: int) -> Optional[Move]:
    """Best move of ``i`` into one group: a BAN index or a chain."""
    if isinstance(group, Chain):
        moves = (_insert_delta(state, i, p, before, avail) for p in group.nodes for before in (True, False))
        return min(filter(None, moves), key=Move.sort_key, default=None)
    return delta_attach_ban(state, i, group, avail)


def _assign(ws: Workspace, deployment: Deployment, multipliers: Multipliers) -> AssignResult:
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
    # Groups are the open BANs (ints) followed by the chains in creation
    # order. Per unattached SBS the cache holds its avail, its best move per
    # group with that move's sort key, and the group of its least key. After
    # a step only the touched groups, or all groups of an SBS whose avail
    # changed, are recomputed (see the module docstring for why that is
    # exact).
    groups: list = deployment.open_bans()
    group_of: dict[int, int] = {}  # id(chain) -> its index in groups
    avail = dict(zip(unattached, state.uncovered_counts(unattached)))
    moves: dict[int, list[Optional[Move]]] = {i: [None] * len(groups) for i in unattached}
    keys: dict[int, list[tuple]] = {i: [_NO_MOVE] * len(groups) for i in unattached}

    def refresh(i: int, dirty) -> None:
        row, row_keys = moves[i], keys[i]
        for g in dirty:
            move = _group_move(state, i, groups[g], avail[i])
            row[g] = move
            row_keys[g] = move.sort_key() if move else _NO_MOVE

    def argmin(i: int) -> int:
        return min(range(len(groups)), key=keys[i].__getitem__)

    for i in unattached:
        refresh(i, range(len(groups)))
    best_group = {i: argmin(i) for i in unattached} if groups else {}

    while unattached and groups:
        j = min(unattached, key=lambda i: keys[i][best_group[i]])
        best = moves[j][best_group[j]]
        if best is None:
            break
        apply_move(state, best)
        value += best.delta
        unattached.remove(j)
        if not unattached:
            break
        chain = state.chain_of[j]
        if best.kind == "ban":
            group_of[id(chain)] = len(groups)
            touched = (groups.index(best.partner), len(groups))
            groups.append(chain)
            for i in unattached:
                moves[i].append(None)
                keys[i].append(_NO_MOVE)
        else:
            touched = (group_of[id(chain)],)

        for i, a in zip(unattached, state.uncovered_counts(unattached)):
            dirty = touched
            if a != avail[i]:
                avail[i] = a
                dirty = range(len(groups))
            refresh(i, dirty)
            old = best_group[i]
            best_group[i] = argmin(i) if old in dirty else min((old, *dirty), key=keys[i].__getitem__)

    plan = ConnectionPlan(
        ban_cover=dict(state.ban_cover),
        sbs_cover=dict(state.sbs_cover),
        sbs_parent=dict(state.parent),
        ma_parent=dict(anchor.ma_parent),
        machine_cover=dict(anchor.machine_cover),
    )
    return AssignResult(plan, value, tuple(sorted(unattached)), anchor.stranded_mas)


def assign_connections(
    deployment: Deployment,
    multipliers: Multipliers,
    scenario: Scenario,
    tables: DerivedTables,
    theta: Optional[float] = None,
    workspace: Optional[Workspace] = None,
) -> tuple[ConnectionPlan, float]:
    """Greedy connection assignment for a fixed deployment; returns the plan
    and the relaxed objective value it achieves."""
    ws = workspace or Workspace(scenario, tables, theta=theta)
    result = _assign(ws, deployment, multipliers)
    return result.plan, result.value


# ---------------------------------------------------------------------------
# relaxed objective from raw solution structure
# ---------------------------------------------------------------------------


def relaxed_objective(
    solution: Solution,
    multipliers: Multipliers,
    theta: float,
    scenario: Scenario,
    tables: DerivedTables,
) -> RelaxedValue:
    """Relaxed objective of an arbitrary structurally-valid solution (any
    backhaul forest, not only chains)."""
    plan = solution.plan
    ban_terms: dict[int, float] = {}
    for subarea, k in plan.ban_cover.items():
        ban_terms[k] = ban_terms.get(k, 0.0) + 1.0

    r: dict[int, int] = {i: 0 for i in plan.sbs_parent}
    for subarea, i in plan.sbs_cover.items():
        if i not in r:
            raise IntegrityError(f"sbs {i} covers subarea {subarea} without a backhaul link")
        r[i] += 1

    sbs_terms: dict[int, float] = {}
    for i in plan.sbs_parent:
        path = root_path(plan, i)
        prefix = sum(multipliers[idx] for kind, idx in path[1:-1] if kind == "sbs")
        lam_i = multipliers[i]
        limit = tables.sbs_limit(plan.sbs_parent[i], i)
        sbs_terms[i] = (prefix + lam_i - 1.0) * r[i] - lam_i * limit

    covered_machines = len(plan.machine_cover)
    value = (
        scenario.n_subareas
        + theta * scenario.n_machines
        - sum(ban_terms.values())
        + sum(sbs_terms.values())
        - theta * covered_machines
    )
    return RelaxedValue(value, ban_terms, sbs_terms, covered_machines)


# ---------------------------------------------------------------------------
# subgradient step
# ---------------------------------------------------------------------------


def subgradient_update(
    multipliers: Multipliers,
    solution: Solution,
    tables: DerivedTables,
    best_upper: float,
    best_lower: float,
    step_scale: float,
) -> Multipliers:
    """Polyak step along the backhaul-load violations; projected to >= 0."""
    plan = solution.plan
    loads = sbs_loads(solution)
    g = [0.0] * len(multipliers)
    for i, parent in plan.sbs_parent.items():
        g[i] = loads.get(i, 0) - tables.sbs_limit(parent, i)
    norm2 = sum(x * x for x in g)
    if norm2 == 0:
        return multipliers
    step = step_scale * max(best_upper - best_lower, 0.0) / norm2
    if step <= 0:
        return multipliers
    return tuple(max(0.0, lam + step * gi) for lam, gi in zip(multipliers, g))
