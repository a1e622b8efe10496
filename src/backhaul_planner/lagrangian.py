"""Relaxed-problem machinery.

The per-SBS backhaul-load constraint is priced into the objective with
nonnegative multipliers. For a fixed deployment the connection variables are
chosen by a greedy local search: subareas in range of an open BAN are covered
by the nearest one, machine aggregators are attached to the BAN maximizing
machine pickup, and SBSs are attached one at a time by the smallest exact
change of the relaxed objective among direct-attach and chain-insertion
moves. Every candidate change is an exact delta: applying it and recomputing
the relaxed objective from scratch gives the same number.

The greedy step is incremental, with exact invalidation, and runs on arrays
(``_MoveTable``): one column per SBS site, one row per insertion slot (an
open BAN, or a place in a chain). A move's delta is a pure function of three
things only: its slot's group (chain nodes with their assigned subareas, or
the BAN's slot count), the fixed multipliers, and the SBS's count of
uncovered subareas in reach (``avail``). A step changes one chain and at most
one BAN's slots, so it rewrites only that chain's rows, in one numpy pass
over all SBS sites, and that BAN's legality; then the whole table is priced
from the stored terms and the current ``avail``. Every delta is computed by
the scalar functions' operations in their order, so it is the number a full
rescan would compute, bit for bit. ``Move.sort_key`` totally orders distinct
moves, and the step takes the table's least entry in that order, so it picks
the move the full rescan picks. The scalar ``delta_attach_ban`` and
``_insert_delta`` stay as the reference the tests hold the table to.

At all-zero multipliers the relaxed objective is plain weighted uncoverage
(Fisher 1981), and the front search prices every deployment there. Then the
greedy needs no table (``_CoverageGreedy``): a move covers
``min(limit, avail)``, so it keeps each SBS's largest legal parent limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import numpy as np

from .model import ConnectionPlan, Deployment, IntegrityError, ParentRef, SiteKey, Solution, cost, root_path, sbs_loads
from .scenario import TOLERANCE, DerivedTables, Scenario, resolve_theta

Multipliers = tuple[float, ...]
RESTRICTIONS = ("none", "fiber-only", "single-hop")


def zero_multipliers(scenario: Scenario) -> Multipliers:
    return (0.0,) * len(scenario.sbs_sites)


# ---------------------------------------------------------------------------
# workspace: numpy adapters + memo caches shared by one solve
# ---------------------------------------------------------------------------


class Workspace:
    """The context one solve runs in: a read-only solver view of the scenario
    under the MTC weight ``theta`` and a restriction, plus pure-function memo
    caches.

    ``restrict`` is one of ``RESTRICTIONS``: "fiber-only" opens anchors only
    (no SBS or MA sites), "single-hop" forbids relaying. The restriction
    decides which sites a search level may open (``sites``), and with
    ``site_cost`` what they cost.
    """

    def __init__(
        self,
        scenario: Scenario,
        tables: DerivedTables,
        theta: Optional[float] = None,
        restrict: str = "none",
    ):
        if restrict not in RESTRICTIONS:
            raise ValueError(f"restrict must be one of {RESTRICTIONS}")
        self.scenario = scenario
        self.tables = tables
        self.theta = resolve_theta(scenario, theta)
        self.max_hops = 1 if restrict == "single-hop" else scenario.max_relays + 1
        self.allow_stations = restrict != "fiber-only"

        self.n_sub = scenario.n_subareas
        self.n_mach = scenario.n_machines
        self.n_ban = len(scenario.ban_sites)
        self.n_sbs = len(scenario.sbs_sites)
        self.n_ma = len(scenario.ma_sites)

        groups = {"ban": scenario.ban_sites}
        if self.allow_stations:
            groups.update(sbs=scenario.sbs_sites, ma=scenario.ma_sites)
        self.site_cost: dict[SiteKey, float] = {
            (kind, n): s.cost for kind, group in groups.items() for n, s in enumerate(group)
        }
        self.sites: dict[str, list[SiteKey]] = {
            "ban": [site for site in self.site_cost if site[0] == "ban"],
            "station": [site for site in self.site_cost if site[0] != "ban"],
        }

        self.ban_sub = np.asarray(tables.ban_subarea_m, dtype=float).reshape(self.n_ban, self.n_sub)
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
        # the assignment's float forms; every entry is a small integer, so
        # their sums, minima and products are exact
        # row s: which SBSs reach subarea s
        self.reach_t = np.ascontiguousarray(self.sbs_mask.T, dtype=float)
        # link limits out of BAN k (row k) and SBS u (row n_ban + u)
        self.out_f = np.concatenate((self.limit_ban_sbs, self.limit_sbs_sbs)).astype(float)
        # row i: every parent's link limit into SBS i, as Python floats
        self.into_rows = self.out_f.T.tolist()
        # row u: every SBS's link limit into SBS u
        self.into_sbs_f = np.ascontiguousarray(self.limit_sbs_sbs.T, dtype=float)

        rates = np.array([m.rate_bps for m in scenario.machines], dtype=float)
        self.machine_rates = rates
        self.ma_sorted_idx: list[np.ndarray] = []
        for j in range(self.n_ma):
            reach = np.array(tables.ma_reach[j], dtype=int)
            if reach.size:
                order = np.lexsort((reach, rates[reach]))
                reach = reach[order]
            self.ma_sorted_idx.append(reach)

        self._anchor_cache: dict = {}
        self._value_cache: dict = {}
        self._plan_cache: dict = {}
        self._cost_cache: dict = {}
        self.relaxed_cache: dict = {}  # tabu.solve_relaxed's draw-free results

    def deployment_cost(self, deployment: Deployment) -> float:
        """Memoized ``model.cost`` of the deployment, keyed by its sites."""
        hit = self._cost_cache.get(deployment.sites)
        if hit is None:
            hit = self._cost_cache[deployment.sites] = cost(deployment, self.scenario)
        return hit

    def evaluate(self, deployment: Deployment, multipliers: Multipliers) -> float:
        """Memoized relaxed value of the greedy connection assignment."""
        hit = self._value_cache.get((deployment.sites, multipliers))
        if hit is None:
            hit = self.build_plan(deployment, multipliers).value
        return hit

    def build_plan(self, deployment: Deployment, multipliers: Multipliers) -> "AssignResult":
        """The greedy connection assignment, memoized until ``clear_plans``.
        A result is shared by every caller of its key, so none may mutate it."""
        key = (deployment.sites, multipliers)
        hit = self._plan_cache.get(key)
        if hit is None:
            hit = self._plan_cache[key] = _assign(self, deployment, multipliers)
            self._value_cache[key] = hit.value
        return hit

    def clear_plans(self) -> None:
        """Drop the memoized plans and relaxed-search results (the values
        stay). A sweep calls this per budget to bound its memory: most plan
        reuse falls within one budget, and a relaxed result's key holds its
        budget, which the sweep never returns to."""
        self._plan_cache.clear()
        self.relaxed_cache.clear()


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


def _anchor_phase(ws: Workspace, deployment: Deployment) -> AnchorPhase:
    open_bans, open_mas = deployment.open_bans(), deployment.open_mas()
    key = (tuple(open_bans), tuple(open_mas))
    hit = ws._anchor_cache.get(key)
    if hit is not None:
        return hit

    scenario = ws.scenario
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
    waiting = open_mas if ws.allow_stations else []
    free = [k for k in open_bans if scenario.ban_slots > 0]
    mach_covered = np.zeros(ws.n_mach, dtype=bool)
    delta = scenario.radio.compression_ratio

    while waiting and free:
        best = None
        picks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for j in waiting:
            idx = ws.ma_sorted_idx[j]
            if idx.size:
                idx = idx[~mach_covered[idx]]
            cum = np.cumsum(ws.machine_rates[idx]) if idx.size else np.empty(0)
            picks[j] = (idx, cum)
            for k in free:
                budget = ws.cap_ban_ma[k][j] / delta + TOLERANCE
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

    result = AnchorPhase(ban_cover, covered, ma_parent, machine_cover, slots)
    ws._anchor_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# path state over chains
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Chain:
    """A relay chain below an anchor. ``prefix[k]`` is the sum of the
    multipliers of ``nodes[:k]``, added left to right; ``PathState`` rebuilds
    it whenever the nodes change. Chains compare and hash by identity."""

    ban: int
    nodes: list[int] = field(default_factory=list)
    prefix: list[float] = field(default_factory=lambda: [0.0])


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

    def uncovered_in_reach(self, i: int) -> int:
        return int(np.count_nonzero(self.ws.sbs_mask[i] & ~self.covered))

    # -- mutations ----------------------------------------------------------

    def attach_to_ban(self, i: int, k: int, r_new: int) -> None:
        chain = Chain(k, [i])
        self._reprefix(chain)
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
        self._reprefix(chain)
        self.chain_of[i] = chain
        self._cover(i, r_new, freed)

    def _reprefix(self, chain: Chain) -> None:
        chain.prefix = list(accumulate((self.lam[u] for u in chain.nodes), initial=0.0))

    def _cover(self, i: int, r_new: int, freed) -> None:
        chosen = self.assigned.setdefault(i, [])
        if r_new <= 0:
            return
        for s in self.ws.tables.sbs_reach[i]:
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


def _insert_delta(
    state: PathState, i: int, chain: Chain, pos: int, before: bool, avail: int
) -> tuple[float, int, list[int]]:
    """Exact relaxed-objective change of splicing ``i`` in before or after
    ``chain.nodes[pos]``, with the subareas ``i`` would cover and the
    downstream stations whose coverage the splice drops. The caller checks
    the chain's hop limit."""
    ws, lam = state.ws, state.lam
    nodes, prefix = chain.nodes, chain.prefix
    p = nodes[pos]
    lam_i = lam[i]

    if before:
        if pos == 0:
            n_parent_i = int(ws.limit_ban_sbs[chain.ban, i])
            n_parent_p = int(ws.limit_ban_sbs[chain.ban, p])
        else:
            a = nodes[pos - 1]
            n_parent_i = int(ws.limit_sbs_sbs[a, i])
            n_parent_p = int(ws.limit_sbs_sbs[a, p])
        start = pos
        dv = lam[p] * (n_parent_p - int(ws.limit_sbs_sbs[i, p])) - lam_i * n_parent_i
        cap_i = n_parent_i
    else:
        start = pos + 1
        cap_i = int(ws.limit_sbs_sbs[p, i])
        dv = -lam_i * cap_i
        if start < len(nodes):
            q = nodes[start]
            dv += lam[q] * (int(ws.limit_sbs_sbs[p, q]) - int(ws.limit_sbs_sbs[i, q]))

    drops: list[int] = []
    freed_count = 0
    for off, u in enumerate(nodes[start:]):
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

    coeff_i = prefix[start] + lam_i - 1.0
    if coeff_i > 0:
        r_new = 0
    else:
        r_new = min(cap_i, avail + freed_count)
    dv += coeff_i * r_new
    return dv, r_new, drops


def _insert_move(state: PathState, i: int, p: int, before: bool, avail: int) -> Optional[Move]:
    chain = state.chain_of[p]
    if len(chain.nodes) >= state.ws.max_hops:
        return None
    dv, r_new, drops = _insert_delta(state, i, chain, chain.nodes.index(p), before, avail)
    return Move(dv, i, "before" if before else "after", p, r_new, tuple(drops))


def delta_insert_before(state: PathState, i: int, p: int, avail: int) -> Optional[Move]:
    """Exact delta of splicing ``i`` in as the new parent of ``p``."""
    return _insert_move(state, i, p, True, avail)


def delta_insert_after(state: PathState, i: int, p: int, avail: int) -> Optional[Move]:
    """Exact delta of splicing ``i`` in directly below ``p``."""
    return _insert_move(state, i, p, False, avail)


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


class _MoveTable:
    """The move of every waiting SBS into every insertion slot, as arrays with
    one column per SBS site and one row per slot: a row per open BAN (a
    direct attach), then a block of ``max_hops`` rows per chain.

    A chain of L nodes has L + 1 slots: before each node and after the last.
    Splicing in after node k < L - 1 is the splice before node k + 1 (same
    start, capacity and downstream terms, so the same delta bit for bit), and
    ``Move.sort_key`` ranks "before" first, so that move never wins and has no
    row.

    A row keeps the terms of its deltas that ``avail`` does not enter:
    ``base`` (every term but the last), ``coeff`` (the new node's coverage
    coefficient), and ``cap`` and ``freed``, which bound its new coverage;
    ``cap`` is 0 where ``coeff > 0``, as such a move covers nothing. Each step
    prices every row as ``base + coeff * min(cap, avail + freed)``. These are
    the operations of ``delta_attach_ban`` and ``_insert_delta``, elementwise
    and in their order (IEEE addition commutes and ``x - y`` is ``x + (-y)``),
    so each delta equals the scalar one bit for bit. ``base`` is inf for an
    illegal move and in the column of an SBS that is closed or attached.
    ``cap``, ``freed``, ``held`` and ``avail`` are floats holding small
    integers, so their sums, minima and products are exact.

    A step changes one chain's rows, at most one BAN's legality and the
    ``avail`` of some SBSs, so only that chain's terms are rewritten.
    """

    def __init__(self, state: PathState, bans: list[int], sbss: list[int]):
        ws = self.ws = state.ws
        self.state = state
        self.lam = np.asarray(state.lam, dtype=float)
        self.neg_lam = -self.lam
        self.avail = ~state.covered @ ws.reach_t
        self.gone = np.ones(ws.n_sbs, dtype=bool)  # closed or attached
        self.gone[sbss] = False
        # row i: how many of the subareas SBS i covers each column reaches
        self.held = np.zeros((ws.n_sbs, ws.n_sbs))

        rows = len(bans) + len(sbss) * ws.max_hops
        self.base = np.full((rows, ws.n_sbs), np.inf)
        self.coeff = np.zeros((rows, ws.n_sbs))
        self.cap = np.zeros((rows, ws.n_sbs))
        self.freed = np.zeros((rows, ws.n_sbs))
        # per row: kind, partner, and (node, drop mask) per node downstream
        self.label: list = [("ban", k, ()) for k in bans] + [None] * (rows - len(bans))
        # ties between the moves of one SBS: kind rank, then partner
        self.span = ws.n_ban + ws.n_sbs
        self.order = np.zeros(rows, dtype=int)
        self.order[: len(bans)] = bans
        self.ban_row = {k: r for r, k in enumerate(bans)}
        self.block: dict[Chain, int] = {}  # chain -> its first row
        self.used = n = len(bans)

        self.cap[:n] = ws.out_f[bans]
        np.multiply(self.neg_lam, self.cap[:n], out=self.base[:n])
        self.coeff[:n] = self.lam - 1.0
        self.cap[:n, self.lam > 1] = 0
        np.copyto(self.base[:n], np.inf, where=self.gone)
        self.base[[r for r, k in enumerate(bans) if state.slots.get(k, 0) >= ws.scenario.ban_slots]] = np.inf

    def best(self) -> Optional[Move]:
        """The least move by ``Move.sort_key``, or None if none is legal."""
        n = self.used
        r_new = np.minimum(self.cap[:n], self.avail + self.freed[:n])
        dv = self.coeff[:n] * r_new
        dv += self.base[:n]
        # ties: the least SBS (the first least column), then kind and partner
        colmin = dv.min(axis=0)
        i = int(colmin.argmin())
        low = colmin[i]
        if low == np.inf:
            return None
        rows = (dv[:, i] == low).nonzero()[0]
        r = int(rows[self.order[rows].argmin()])
        kind, partner, downstream = self.label[r]
        drops = tuple(u for u, drop in downstream if drop[i])
        return Move(float(dv[r, i]), i, kind, partner, int(r_new[r, i]), drops)

    def apply(self, move: Move) -> None:
        """Apply ``move`` to the state and update what it changed: its SBS
        stops waiting, its chain's rows, its BAN's legality, and ``avail``."""
        state, i = self.state, move.sbs
        apply_move(state, move)
        self.gone[i] = True
        self.base[:, i] = np.inf
        # subareas in each column's reach that the drops freed, less those
        # the SBS now covers
        if move.drops:
            self.avail += self.held[list(move.drops)].sum(axis=0)
            self.held[list(move.drops)] = 0
        self.held[i] = self.ws.reach_t.take(state.assigned[i], axis=0).sum(axis=0)
        self.avail -= self.held[i]
        chain = state.chain_of[i]
        if move.kind == "ban":
            self.block[chain] = self.used
            self.used += self.ws.max_hops
            if state.slots[move.partner] >= self.ws.scenario.ban_slots:
                self.base[self.ban_row[move.partner]] = np.inf
        self._price_chain(chain)

    def _price_chain(self, chain: Chain) -> None:
        """Rewrite the terms of the chain's rows; a full chain takes no SBS."""
        ws, state, lam = self.ws, self.state, self.lam
        first = self.block[chain]
        nodes = chain.nodes
        if len(nodes) >= ws.max_hops:
            self.base[first : first + ws.max_hops] = np.inf
            return
        rows = slice(first, first + len(nodes) + 1)
        base, coeff, cap, freed = self.base[rows], self.coeff[rows], self.cap[rows], self.freed[rows]
        # slot s's parent is the anchor for s = 0, else node s - 1
        ws.out_f.take([chain.ban] + [ws.n_ban + u for u in nodes], axis=0, out=cap)
        np.multiply(self.neg_lam, cap, out=base)
        freed.fill(0)
        downstream = []
        for k, u in enumerate(nodes):
            # before node k: its parent's limit to it falls to the new node's
            base[k] += state.lam[u] * (cap[k, u] - ws.into_sbs_f[u])
            # node k is downstream of slots 0..k
            coeff_old = chain.prefix[k] + state.lam[u] - 1.0
            r_u = state.r(u)
            drop = coeff_old + lam > 0
            inc = lam * r_u
            np.copyto(inc, -(coeff_old * r_u), where=drop)
            base[: k + 1] += inc
            if r_u:
                freed[: k + 1] += drop * self.held[u]
            downstream.append((u, drop))
        np.add.outer(chain.prefix, lam, out=coeff)
        coeff -= 1.0
        cap[coeff > 0] = 0
        np.copyto(base, np.inf, where=self.gone)
        self.label[rows] = [("before", u, downstream[k:]) for k, u in enumerate(nodes)] + [("after", nodes[-1], ())]
        self.order[rows] = [self.span + u for u in nodes] + [2 * self.span + nodes[-1]]


class _CoverageGreedy:
    """The greedy at all-zero multipliers (-0.0 counts as zero), with
    ``_MoveTable``'s ``best`` and ``apply``. No splice drops coverage there,
    and moving SBS i into a slot whose parent is row p of ``ws.out_f`` covers
    ``v = min(out_f[p, i], avail_i)`` for the delta ``0.0 - v``: the scalar
    delta up to the sign of a zero, which ties and sums the same (the running
    value starts as a difference, so it is never -0.0).

    The legal slots: the direct attach to each BAN in ``free`` and, in each
    chain below ``max_hops``, the slot before each node (``before``: node ->
    the slot's parent row) and after the last (``after``: node -> its row).
    ``top`` is each column's largest limit over these parent rows; a new
    parent raises it, and a BAN or chain that fills makes it be recomputed.
    A step takes the first column maximizing ``min(top, avail)`` (negative
    for a closed or attached SBS), then the least slot by kind and partner
    whose parent's limit is at least that ``v``: exactly the moves covering
    ``v``. ``top`` and ``avail`` hold small integers, so they are exact.
    """

    def __init__(self, state: PathState, bans: list[int], sbss: list[int]):
        ws = self.ws = state.ws
        self.state = state
        self.avail = np.full(ws.n_sbs, -1.0)
        self.avail[sbss] = (~state.covered @ ws.reach_t)[sbss]
        self.free = [k for k in bans if state.slots.get(k, 0) < ws.scenario.ban_slots]
        self.before: dict[int, int] = {}
        self.after: dict[int, int] = {}
        self._recompute()

    def _recompute(self) -> None:
        rows = [*self.free, *self.before.values(), *self.after.values()]
        self.top = self.ws.out_f[rows].max(axis=0) if rows else np.full(self.ws.n_sbs, -1.0)

    def best(self) -> Optional[Move]:
        """The least move by ``Move.sort_key``, or None if none is legal."""
        score = np.minimum(self.top, self.avail)
        i = int(score.argmax())
        v = score.item(i)
        if v < 0:
            return None
        limit = self.ws.into_rows[i]
        r = int(v)
        for k in self.free:
            if limit[k] >= v:
                return Move(0.0 - r, i, "ban", k, r)
        u = min((u for u, p in self.before.items() if limit[p] >= v), default=None)
        if u is not None:
            return Move(0.0 - r, i, "before", u, r)
        return Move(0.0 - r, i, "after", min(u for u, p in self.after.items() if limit[p] >= v), r)

    def apply(self, move: Move) -> None:
        """Apply ``move`` to the state and update ``avail``, the slots and ``top``."""
        ws, state, i, p = self.ws, self.state, move.sbs, move.partner
        apply_move(state, move)
        self.avail[i] = -1.0
        if move.r_new:
            self.avail -= np.add.reduce(ws.reach_t.take(state.assigned[i], axis=0))
        row = ws.n_ban + i
        nodes = state.chain_of[i].nodes
        filled = move.kind == "ban" and state.slots[p] >= ws.scenario.ban_slots
        if filled:
            self.free.remove(p)
        if len(nodes) >= ws.max_hops:
            if move.kind != "ban":  # the chain's slots close
                for u in nodes:
                    self.before.pop(u, None)
                self.after.pop(p if move.kind == "after" else nodes[-1])
                filled = True
        elif move.kind == "ban":
            self.before[i], self.after[i] = p, row
        elif move.kind == "before":  # i takes p's slot and parents p's new one
            self.before[i], self.before[p] = self.before[p], row
        else:  # after the last node p: i takes p's slot and parents a new one
            self.before[i], self.after[i] = self.after.pop(p), row
        if filled:
            self._recompute()
        elif len(nodes) < ws.max_hops:
            np.maximum(self.top, ws.out_f[row], out=self.top)


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

    unattached = deployment.open_sbss() if ws.allow_stations else []
    bans = deployment.open_bans()
    greedy = _MoveTable if any(multipliers) else _CoverageGreedy  # -0.0 counts as zero
    table = greedy(state, bans, unattached) if unattached and bans else None
    while table and unattached:
        move = table.best()
        if move is None:
            break
        value += move.delta
        unattached.remove(move.sbs)
        if unattached:
            table.apply(move)
        else:  # the last attachment leaves nothing to reprice
            apply_move(state, move)

    plan = ConnectionPlan(
        ban_cover=dict(state.ban_cover),
        sbs_cover=dict(state.sbs_cover),
        sbs_parent=dict(state.parent),
        ma_parent=dict(anchor.ma_parent),
        machine_cover=dict(anchor.machine_cover),
    )
    return AssignResult(plan, value)


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
) -> float:
    """Relaxed objective of an arbitrary structurally-valid solution (any
    backhaul forest, not only chains)."""
    plan = solution.plan
    r: dict[int, int] = {i: 0 for i in plan.sbs_parent}
    for subarea, i in plan.sbs_cover.items():
        if i not in r:
            raise IntegrityError(f"sbs {i} covers subarea {subarea} without a backhaul link")
        r[i] += 1

    sbs_terms = 0.0
    for i in plan.sbs_parent:
        path = root_path(plan, i)
        prefix = sum(multipliers[idx] for kind, idx in path[1:-1] if kind == "sbs")
        lam_i = multipliers[i]
        limit = tables.sbs_limit(plan.sbs_parent[i], i)
        sbs_terms += (prefix + lam_i - 1.0) * r[i] - lam_i * limit

    return (
        scenario.n_subareas
        + theta * scenario.n_machines
        - len(plan.ban_cover)
        + sbs_terms
        - theta * len(plan.machine_cover)
    )


# ---------------------------------------------------------------------------
# subgradient step
# ---------------------------------------------------------------------------


def subgradient(solution: Solution, tables: DerivedTables) -> list[float]:
    """Backhaul-load violation (load - limit) per SBS; 0 where unattached."""
    loads = sbs_loads(solution)
    g = [0.0] * len(tables.sbs_reach)
    for i, parent in solution.plan.sbs_parent.items():
        g[i] = loads.get(i, 0) - tables.sbs_limit(parent, i)
    return g


def subgradient_update(
    multipliers: Multipliers,
    g: list[float],
    best_upper: float,
    best_lower: float,
    step_scale: float,
) -> Multipliers:
    """Polyak step along the subgradient ``g``; projected to >= 0."""
    norm2 = sum(x * x for x in g)
    if norm2 == 0:
        return multipliers
    step = step_scale * max(best_upper - best_lower, 0.0) / norm2
    if step <= 0:
        return multipliers
    return tuple(max(0.0, lam + step * gi) for lam, gi in zip(multipliers, g))
