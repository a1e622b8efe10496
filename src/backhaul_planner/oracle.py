"""Ground-truth solvers for tiny instances.

Exhaustive enumeration of deployments, backhaul forests and aggregator
assignments, with coverage assignment solved exactly by integral max-flow.
Everything here trades speed for certainty: it exists so the heuristic
pipeline's fronts, relaxed values and bounds can be checked against exact
numbers on instances small enough to enumerate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .model import ParentRef
from .scenario import TOLERANCE, DerivedTables, Scenario, resolve_theta


class OracleLimitError(RuntimeError):
    """The instance is too large (or otherwise unsupported) to enumerate."""


# the largest instance the enumerator takes, and the work it may do on one
MAX_BAN_SITES = 3
MAX_SBS_SITES = 5
MAX_MA_SITES = 3
MAX_SUBAREAS = 25
MAX_MACHINES = 30
MAX_STATES = 100_000_000


# ---------------------------------------------------------------------------
# tiny max-flow (Edmonds-Karp on dict adjacency)
# ---------------------------------------------------------------------------


def _max_flow(capacity: dict[int, dict[int, int]], source: int, sink: int) -> int:
    residual: dict[int, dict[int, int]] = {}
    for u, row in capacity.items():
        for v, c in row.items():
            residual.setdefault(u, {})[v] = residual.get(u, {}).get(v, 0) + c
            residual.setdefault(v, {}).setdefault(u, 0)
    flow = 0
    while True:
        parent = {source: source}
        queue = [source]
        while queue and sink not in parent:
            u = queue.pop(0)
            for v, c in residual.get(u, {}).items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        # bottleneck along the found path
        push = math.inf
        v = sink
        while v != source:
            u = parent[v]
            push = min(push, residual[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            residual[u][v] -= push
            residual[v][u] += push
            v = u
        flow += push


def _prune_pareto(entries: list[tuple[tuple[int, ...], float]], lower_better: bool) -> list[tuple[tuple[int, ...], float]]:
    """Keep the antichain over (resource vector, value): drop entries whose
    vector is componentwise >= another's with a value no better."""
    kept: list[tuple[tuple[int, ...], float]] = []
    for vec, val in sorted(entries, key=lambda e: (sum(e[0]), e[1] if lower_better else -e[1])):
        dominated = False
        for kvec, kval in kept:
            if all(a <= b for a, b in zip(kvec, vec)) and (kval <= val if lower_better else kval >= val):
                dominated = True
                break
        if not dominated:
            kept.append((vec, val))
    return kept


# ---------------------------------------------------------------------------
# the enumerator
# ---------------------------------------------------------------------------


@dataclass
class _Forest:
    parents: tuple[tuple[int, ParentRef], ...]  # (sbs, parent) per open SBS
    ban_children: tuple[int, ...]  # direct SBS children per BAN site
    limits: tuple[tuple[int, int], ...]  # (sbs, limit from its parent)
    ancestors: tuple[tuple[int, tuple[int, ...]], ...]  # (sbs, SBS ancestors)


class _Enumerator:
    def __init__(self, scenario: Scenario, tables: DerivedTables, theta: float):
        if len(scenario.ban_sites) > MAX_BAN_SITES:
            raise OracleLimitError(f"{len(scenario.ban_sites)} BAN sites exceed the limit {MAX_BAN_SITES}")
        if len(scenario.sbs_sites) > MAX_SBS_SITES:
            raise OracleLimitError(f"{len(scenario.sbs_sites)} SBS sites exceed the limit {MAX_SBS_SITES}")
        if len(scenario.ma_sites) > MAX_MA_SITES:
            raise OracleLimitError(f"{len(scenario.ma_sites)} MA sites exceed the limit {MAX_MA_SITES}")
        if scenario.n_subareas > MAX_SUBAREAS:
            raise OracleLimitError(f"{scenario.n_subareas} subareas exceed the limit {MAX_SUBAREAS}")
        if scenario.n_machines > MAX_MACHINES:
            raise OracleLimitError(f"{scenario.n_machines} machines exceed the limit {MAX_MACHINES}")
        rates = {m.rate_bps for m in scenario.machines}
        if len(rates) > 1:
            raise OracleLimitError("enumeration requires a uniform machine rate")

        self.scenario = scenario
        self.tables = tables
        self.theta = theta
        self.states = 0
        self.max_hops = scenario.max_relays + 1

        self.n_ban = len(scenario.ban_sites)
        self.n_sbs = len(scenario.sbs_sites)
        self.n_ma = len(scenario.ma_sites)
        # every subset of each site list, smallest first
        self.ban_sets, self.sbs_sets, self.ma_sets = (
            list(itertools.chain.from_iterable(itertools.combinations(range(n), size) for size in range(n + 1)))
            for n in (self.n_ban, self.n_sbs, self.n_ma)
        )
        self.sbs_reach = [set(r) for r in tables.sbs_reach]
        self.ban_reach = [set(r) for r in tables.ban_reach]
        self.ma_reach = [tuple(r) for r in tables.ma_reach]
        self.machine_rate = scenario.machines[0].rate_bps if scenario.machines else 0.0

        self._forest_cache: dict = {}
        self._match_cache: dict = {}
        self._front: Optional[list[tuple[float, float]]] = None

    def _bump(self, n: int = 1) -> None:
        self.states += n
        if self.states > MAX_STATES:
            raise OracleLimitError(f"state budget {MAX_STATES} exhausted")

    # -- deployment pieces ----------------------------------------------------

    def _cost(self, bans, sbss, mas) -> float:
        sc = self.scenario
        return (
            sum(sc.ban_sites[k].cost for k in bans)
            + sum(sc.sbs_sites[i].cost for i in sbss)
            + sum(sc.ma_sites[j].cost for j in mas)
        )

    def _ban_covered(self, bans: tuple[int, ...]) -> set[int]:
        covered: set[int] = set()
        for k in bans:
            covered |= self.ban_reach[k]
        return covered

    def _forests(self, bans: tuple[int, ...], sbss: tuple[int, ...]) -> list[_Forest]:
        key = (bans, sbss)
        hit = self._forest_cache.get(key)
        if hit is not None:
            return hit
        out: list[_Forest] = []
        if not sbss:
            out.append(_Forest((), (0,) * self.n_ban, (), ()))
        elif bans:
            options = [
                [("ban", k) for k in bans] + [("sbs", p) for p in sbss if p != i] for i in sbss
            ]
            for combo in itertools.product(*options):
                self._bump()
                parent = dict(zip(sbss, combo))
                depths: dict[int, int] = {}
                ancestors: dict[int, tuple[int, ...]] = {}
                ok = True
                for i in sbss:
                    chain = []
                    node = i
                    while True:
                        if node in depths:
                            base_depth, base_anc = depths[node], ancestors[node]
                            break
                        chain.append(node)
                        kind, idx = parent[node]
                        if kind == "ban":
                            base_depth, base_anc = 0, ()
                            break
                        if idx in chain:
                            ok = False
                            break
                        node = idx
                    if not ok:
                        break
                    # chain runs bottom-up: chain[0] == i, chain[-1] hangs off
                    # the node whose depth/ancestry is already known
                    for idx in range(len(chain) - 1, -1, -1):
                        u = chain[idx]
                        depths[u] = base_depth + (len(chain) - idx)
                        ancestors[u] = base_anc + tuple(reversed(chain[idx + 1 :]))
                    if depths[i] > self.max_hops:
                        ok = False
                        break
                if not ok:
                    continue
                children = [0] * self.n_ban
                limits = []
                for i in sbss:
                    kind, idx = parent[i]
                    if kind == "ban":
                        children[idx] += 1
                    limits.append((i, self.tables.sbs_limit(parent[i], i)))
                out.append(
                    _Forest(
                        tuple(sorted(parent.items())),
                        tuple(children),
                        tuple(limits),
                        tuple(sorted(ancestors.items())),
                    )
                )
        self._forest_cache[key] = out
        return out

    def _coverage_flow(self, bans: tuple[int, ...], forest: _Forest) -> int:
        """Max SBS coverage honoring per-link subarea limits along chains."""
        ban_covered = self._ban_covered(bans)
        parent = dict(forest.parents)
        attached = list(parent)
        if not attached:
            return 0
        targets = sorted(set().union(*(self.sbs_reach[i] for i in attached)) - ban_covered)
        if not targets:
            return 0
        # node ids: 0 source, 1 sink, subareas, SBSs, BANs
        sub_id = {s: 2 + n for n, s in enumerate(targets)}
        sbs_id = {i: 2 + len(targets) + n for n, i in enumerate(attached)}
        ban_id = {k: 2 + len(targets) + len(attached) + n for n, k in enumerate(bans)}
        cap: dict[int, dict[int, int]] = {0: {}}
        for s, sid in sub_id.items():
            cap[0][sid] = 1
            cap.setdefault(sid, {})
            for i in attached:
                if s in self.sbs_reach[i]:
                    cap[sid][sbs_id[i]] = 1
        limit = dict(forest.limits)
        for i in attached:
            kind, idx = parent[i]
            up = ban_id[idx] if kind == "ban" else sbs_id[idx]
            cap.setdefault(sbs_id[i], {})[up] = limit[i]
        big = len(targets) + 1
        for k in bans:
            cap.setdefault(ban_id[k], {})[1] = big
        self._bump()
        return _max_flow(cap, 0, 1)

    def _machine_match(self, ma_map: tuple[tuple[int, int], ...]) -> int:
        """Max covered machines for a fixed aggregator-to-anchor map."""
        hit = self._match_cache.get(ma_map)
        if hit is not None:
            return hit
        delta = self.scenario.radio.compression_ratio
        caps: dict[int, int] = {}
        for j, k in ma_map:
            by_rate = (
                self.scenario.n_machines
                if self.machine_rate == 0
                else int(self.tables.ban_ma_capacity[k][j] / (self.machine_rate * delta) + TOLERANCE)
            )
            caps[j] = min(self.tables.machine_limit, by_rate, len(self.ma_reach[j]))
        machines = sorted({m for j, _ in ma_map for m in self.ma_reach[j]})
        mach_id = {m: 2 + n for n, m in enumerate(machines)}
        ma_id = {j: 2 + len(machines) + n for n, (j, _) in enumerate(ma_map)}
        cap: dict[int, dict[int, int]] = {0: {}}
        for m, mid in mach_id.items():
            cap[0][mid] = 1
            cap.setdefault(mid, {})
            for j, _ in ma_map:
                if m in self.ma_reach[j]:
                    cap[mid][ma_id[j]] = 1
        for j, _ in ma_map:
            cap.setdefault(ma_id[j], {})[1] = caps[j]
        self._bump()
        result = _max_flow(cap, 0, 1)
        self._match_cache[ma_map] = result
        return result

    def _ma_options(self, bans: tuple[int, ...], mas: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        """Slot-use vector and machine pickup per aggregator-to-anchor map,
        pruned to the efficient ones."""
        if not mas:
            return [((0,) * self.n_ban, 0)]
        if not bans:
            return []
        entries = []
        for combo in itertools.product(bans, repeat=len(mas)):
            self._bump()
            use = [0] * self.n_ban
            for k in combo:
                use[k] += 1
            if any(u > self.scenario.ban_slots for u in use):
                continue
            matched = self._machine_match(tuple(zip(mas, combo)))
            entries.append((tuple(use), float(matched)))
        pruned = _prune_pareto(entries, lower_better=False)
        return [(vec, int(val)) for vec, val in pruned]

    # -- exact Pareto front -----------------------------------------------------

    def front(self) -> list[tuple[float, float]]:
        if self._front is not None:
            return self._front
        sc = self.scenario
        theta = self.theta
        points: list[tuple[float, float]] = []
        for bans in self.ban_sets:
            ban_cov = len(self._ban_covered(bans))
            for sbss in self.sbs_sets:
                forests = self._forests(bans, sbss)
                if sbss and not forests:
                    continue
                coverage_options = []
                for forest in forests:
                    covered = ban_cov + self._coverage_flow(bans, forest)
                    coverage_options.append((forest.ban_children, float(sc.n_subareas - covered)))
                coverage_options = _prune_pareto(coverage_options, lower_better=True)
                for mas in self.ma_sets:
                    ma_options = self._ma_options(bans, mas)
                    if mas and not ma_options:
                        continue
                    best_fc = math.inf
                    for use, matched in ma_options:
                        f3 = sc.n_machines - matched
                        for children, f2 in coverage_options:
                            if any(c + u > sc.ban_slots for c, u in zip(children, use)):
                                continue
                            best_fc = min(best_fc, f2 + theta * f3)
                    if math.isinf(best_fc):
                        continue
                    points.append((self._cost(bans, sbss, mas), best_fc))
        self._front = nondominated_points(points)
        return self._front

    # -- exact relaxed optimum ----------------------------------------------

    def relaxed_optimum(self, multipliers, budget: float) -> float:
        sc = self.scenario
        theta = self.theta
        best = math.inf
        sub_cands = [
            [i for i in range(self.n_sbs) if s in self.sbs_reach[i]] for s in range(sc.n_subareas)
        ]
        base = sc.n_subareas + theta * sc.n_machines
        for bans in self.ban_sets:
            ban_covered = self._ban_covered(bans)
            for sbss in self.sbs_sets:
                forests = self._forests(bans, sbss)
                if sbss and not forests:
                    continue
                forest_vals = []
                for forest in forests:
                    self._bump()
                    attached = set(dict(forest.parents))
                    weight = {}
                    anc = dict(forest.ancestors)
                    for i in attached:
                        weight[i] = 1.0 - sum(multipliers[a] for a in anc[i]) - multipliers[i]
                    gain = 0.0
                    for s in range(sc.n_subareas):
                        if s in ban_covered:
                            gain += 1.0
                            continue
                        w = 0.0
                        for i in sub_cands[s]:
                            if i in attached and weight[i] > w:
                                w = weight[i]
                        gain += w
                    capacity_credit = sum(multipliers[i] * lim for i, lim in forest.limits)
                    forest_vals.append((forest.ban_children, -gain - capacity_credit))
                for mas in self.ma_sets:
                    cost = self._cost(bans, sbss, mas)
                    if cost > budget + TOLERANCE:
                        continue
                    for use, matched in self._ma_options(bans, mas):
                        for children, fval in forest_vals:
                            if any(c + u > sc.ban_slots for c, u in zip(children, use)):
                                continue
                            best = min(best, base + fval - theta * matched)
        return best


def nondominated_points(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Staircase filter on (cost, weighted-uncoverage) pairs."""
    out: list[tuple[float, float]] = []
    best = math.inf
    for cost, fc in sorted(set(points)):
        if fc < best - 1e-12:
            out.append((cost, fc))
            best = fc
    return out


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

_enumerators: dict = {}


def _enumerator(scenario: Scenario, tables: DerivedTables, theta: float) -> _Enumerator:
    key = (scenario, theta)
    found = _enumerators.get(key)
    if found is None:
        found = _Enumerator(scenario, tables, theta)
        if len(_enumerators) > 64:
            _enumerators.clear()
        _enumerators[key] = found
    return found


def exact_front(
    scenario: Scenario, tables: DerivedTables, theta: Optional[float] = None
) -> list[tuple[float, float]]:
    """The exact nondominated (cost, weighted-uncoverage) set."""
    return _enumerator(scenario, tables, resolve_theta(scenario, theta)).front()


def exact_relaxed_optimum(
    scenario: Scenario, tables: DerivedTables, multipliers, budget: float, theta: Optional[float] = None
) -> float:
    """Exhaustive minimum of the relaxed objective within the cost budget."""
    enumerator = _enumerator(scenario, tables, resolve_theta(scenario, theta))
    return enumerator.relaxed_optimum(tuple(multipliers), budget)
