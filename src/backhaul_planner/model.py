"""The deployment problem as executable artifacts.

Solutions pair a deployment, the set of open candidate sites, with a
connection plan: which station covers each subarea, the backhaul forest over
small cells, aggregator-to-anchor links, and machine assignments. Feasibility
checking returns the complete violation list (violations are data, not
exceptions) so tests and the CLI can report every broken constraint at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .scenario import TOLERANCE, DerivedTables, Scenario

ParentRef = tuple[str, int]  # ("ban", k) or ("sbs", p)
SiteKey = tuple[str, int]  # ("ban" | "sbs" | "ma", index)


class IntegrityError(RuntimeError):
    """A solution's structure is internally inconsistent (cycle, lost root)."""


class SolutionFormatError(ValueError):
    """A solution file is malformed; the message names the field."""


@dataclass(frozen=True)
class Deployment:
    """The open candidate sites, each named by its ``SiteKey``."""

    sites: frozenset[SiteKey] = frozenset()

    @classmethod
    def empty(cls, scenario: Scenario) -> "Deployment":
        return cls()

    @classmethod
    def of(cls, scenario: Scenario, bans=(), sbss=(), mas=()) -> "Deployment":
        """The deployment opening the given site indices of each role; an
        index outside the scenario's site list raises IndexError."""
        sites = set()
        for kind, group, chosen in (
            ("ban", scenario.ban_sites, bans), ("sbs", scenario.sbs_sites, sbss), ("ma", scenario.ma_sites, mas)
        ):
            for i in chosen:
                if not 0 <= i < len(group):
                    raise IndexError(f"{kind} site {i} is not in [0, {len(group)})")
                sites.add((kind, i))
        return cls(frozenset(sites))

    def _open(self, role: str) -> list[int]:
        return sorted(i for kind, i in self.sites if kind == role)

    def open_bans(self) -> list[int]:
        return self._open("ban")

    def open_sbss(self) -> list[int]:
        return self._open("sbs")

    def open_mas(self) -> list[int]:
        return self._open("ma")


@dataclass
class ConnectionPlan:
    """Coverage and backhaul choices for a fixed deployment."""

    ban_cover: dict[int, int] = field(default_factory=dict)  # subarea -> BAN
    sbs_cover: dict[int, int] = field(default_factory=dict)  # subarea -> SBS
    sbs_parent: dict[int, ParentRef] = field(default_factory=dict)
    ma_parent: dict[int, int] = field(default_factory=dict)  # MA -> BAN
    machine_cover: dict[int, int] = field(default_factory=dict)  # machine -> MA

    def copy(self) -> "ConnectionPlan":
        return ConnectionPlan(
            dict(self.ban_cover),
            dict(self.sbs_cover),
            dict(self.sbs_parent),
            dict(self.ma_parent),
            dict(self.machine_cover),
        )


@dataclass
class Solution:
    deployment: Deployment
    plan: ConnectionPlan

    @classmethod
    def empty(cls, scenario: Scenario) -> "Solution":
        return cls(Deployment.empty(scenario), ConnectionPlan())

    def copy(self) -> "Solution":
        return Solution(self.deployment, self.plan.copy())


@dataclass(frozen=True)
class ObjectiveVector:
    cost: float
    uncovered_subareas: int
    uncovered_machines: int
    weighted_uncovered: float


@dataclass(frozen=True)
class Violation:
    code: str
    subject: tuple
    detail: str


def cost(deployment: Deployment, scenario: Scenario) -> float:
    """Total deployment cost of the open sites: each role summed from 0 in
    index order, then bans + SBSs + MAs."""
    groups = {"ban": scenario.ban_sites, "sbs": scenario.sbs_sites, "ma": scenario.ma_sites}
    totals = dict.fromkeys(groups, 0)
    for kind, i in sorted(deployment.sites):
        totals[kind] += groups[kind][i].cost
    return totals["ban"] + totals["sbs"] + totals["ma"]


def objectives(solution: Solution, scenario: Scenario, mtc_weight: float) -> ObjectiveVector:
    covered_subareas = len(solution.plan.ban_cover) + len(solution.plan.sbs_cover)
    covered_machines = len(solution.plan.machine_cover)
    f2 = scenario.n_subareas - covered_subareas
    f3 = scenario.n_machines - covered_machines
    return ObjectiveVector(
        cost=cost(solution.deployment, scenario),
        uncovered_subareas=f2,
        uncovered_machines=f3,
        weighted_uncovered=f2 + mtc_weight * f3,
    )


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """Strict Pareto dominance on the (cost, weighted uncoverage) pair."""
    if a.cost > b.cost or a.weighted_uncovered > b.weighted_uncovered:
        return False
    return a.cost < b.cost or a.weighted_uncovered < b.weighted_uncovered


def root_path(plan: ConnectionPlan, sbs: int) -> list[ParentRef]:
    """Nodes from the anchoring BAN down to (and including) the given SBS."""
    rev: list[ParentRef] = [("sbs", sbs)]
    seen = {sbs}
    node = sbs
    while True:
        parent = plan.sbs_parent.get(node)
        if parent is None:
            raise IntegrityError(f"sbs {sbs} has no path to a BAN (chain breaks at sbs {node})")
        kind, idx = parent
        if kind == "ban":
            rev.append(parent)
            return rev[::-1]
        if idx in seen:
            raise IntegrityError(f"cycle in backhaul forest at sbs {idx}")
        seen.add(idx)
        rev.append(parent)
        node = idx


def routing_flows(solution: Solution) -> dict[int, list[tuple[ParentRef, ParentRef]]]:
    """Per covered subarea, the hop sequence its data takes from the BAN to
    the covering SBS. Subareas covered by a BAN directly get an empty flow."""
    flows: dict[int, list[tuple[ParentRef, ParentRef]]] = {}
    for subarea in sorted(solution.plan.ban_cover):
        flows[subarea] = []
    for subarea, sbs in sorted(solution.plan.sbs_cover.items()):
        path = root_path(solution.plan, sbs)
        flows[subarea] = list(zip(path, path[1:]))
    return flows


def sbs_loads(solution: Solution, paths: Optional[list[list[ParentRef]]] = None) -> dict[int, int]:
    """Subareas carried by each attached SBS: its own coverage plus every
    covered subarea routed through it. ``paths`` are the routed subareas'
    root paths, when the caller has them already; by default every
    SBS-covered subarea's."""
    if paths is None:
        paths = [root_path(solution.plan, sbs) for sbs in solution.plan.sbs_cover.values()]
    loads = {i: 0 for i in solution.plan.sbs_parent}
    for path in paths:
        for kind, idx in path:
            if kind == "sbs":
                loads[idx] = loads.get(idx, 0) + 1
    return loads


def check_feasibility(
    solution: Solution,
    scenario: Scenario,
    tables: DerivedTables,
    budget: Optional[float] = None,
) -> list[Violation]:
    """Every violated constraint of the deployment problem, with stable
    ordering. Empty list means feasible; ``budget`` adds the cost cap."""
    v: list[Violation] = []
    open_sites, plan = solution.deployment.sites, solution.plan
    n_ban, n_sbs, n_ma = len(scenario.ban_sites), len(scenario.sbs_sites), len(scenario.ma_sites)
    add = v.append

    # connections may only touch open stations
    for subarea, k in sorted(plan.ban_cover.items()):
        if ("ban", k) not in open_sites:
            add(Violation("cover-undeployed", (k, subarea), f"ban {k} covers subarea {subarea} but is not open"))
    for subarea, i in sorted(plan.sbs_cover.items()):
        if ("sbs", i) not in open_sites:
            add(Violation("cover-undeployed", (i, subarea), f"sbs {i} covers subarea {subarea} but is not open"))
    for i, (kind, p) in sorted(plan.sbs_parent.items()):
        if ("sbs", i) not in open_sites:
            add(Violation("link-undeployed", (i,), f"sbs {i} has a backhaul link but is not open"))
        if (kind, p) not in open_sites or (kind, p) == ("sbs", i):
            add(Violation("link-undeployed", (i, kind, p), f"sbs {i} hangs off closed {kind} {p}"))
    for j, k in sorted(plan.ma_parent.items()):
        if ("ma", j) not in open_sites:
            add(Violation("link-undeployed", (j,), f"ma {j} has a backhaul link but is not open"))
        if ("ban", k) not in open_sites:
            add(Violation("link-undeployed", (j, "ban", k), f"ma {j} hangs off closed ban {k}"))
    for m, j in sorted(plan.machine_cover.items()):
        if ("ma", j) not in open_sites:
            add(Violation("cover-undeployed", (j, m), f"ma {j} covers machine {m} but is not open"))

    # unique coverage per subarea
    for subarea in sorted(set(plan.ban_cover) & set(plan.sbs_cover)):
        add(Violation("duplicate-coverage", (subarea,), f"subarea {subarea} covered twice"))

    # coverage only within radio range
    n_sub = scenario.n_subareas
    for subarea, k in sorted(plan.ban_cover.items()):
        if not (0 <= subarea < n_sub):
            add(Violation("access-distance", (k, subarea), f"subarea {subarea} does not exist"))
        elif 0 <= k < n_ban and tables.ban_subarea_m[k][subarea] > tables.ban_radius_m + TOLERANCE:
            add(Violation("access-distance", (k, subarea), f"subarea {subarea} out of range of ban {k}"))
    for subarea, i in sorted(plan.sbs_cover.items()):
        if not (0 <= subarea < n_sub):
            add(Violation("access-distance", (i, subarea), f"subarea {subarea} does not exist"))
        elif 0 <= i < n_sbs and tables.sbs_subarea_m[i][subarea] > tables.sbs_radius_m + TOLERANCE:
            add(Violation("access-distance", (i, subarea), f"subarea {subarea} out of range of sbs {i}"))
    reach_by_ma: dict[int, set] = {}  # built for the MAs the plan names only
    for m, j in sorted(plan.machine_cover.items()):
        if j not in reach_by_ma:
            reach_by_ma[j] = set(tables.ma_reach[j]) if 0 <= j < len(tables.ma_reach) else set()
        if m not in reach_by_ma[j]:
            add(Violation("machine-distance", (j, m), f"machine {m} out of range of ma {j}"))

    # anchor slot budget
    slot_use: dict[int, int] = {}
    for i, (kind, p) in plan.sbs_parent.items():
        if kind == "ban":
            slot_use[p] = slot_use.get(p, 0) + 1
    for j, k in plan.ma_parent.items():
        slot_use[k] = slot_use.get(k, 0) + 1
    for k in sorted(slot_use):
        if slot_use[k] > scenario.ban_slots:
            add(Violation("ban-slots", (k,), f"ban {k} serves {slot_use[k]} > {scenario.ban_slots} stations"))

    # every open SBS needs exactly one backhaul parent
    for i in solution.deployment.open_sbss():
        if i not in plan.sbs_parent:
            add(Violation("sbs-backhaul", (i,), f"open sbs {i} has no backhaul link"))
    # every open MA needs a BAN link
    for j in solution.deployment.open_mas():
        if j not in plan.ma_parent:
            add(Violation("ma-backhaul", (j,), f"open ma {j} has no backhaul link"))

    # routing integrity and hop budget for every covered subarea
    max_hops = scenario.max_relays + 1
    paths = []
    for subarea, sbs in sorted(plan.sbs_cover.items()):
        try:
            path = root_path(plan, sbs)
        except IntegrityError as exc:
            add(Violation("routing-integrity", (subarea, sbs), str(exc)))
            continue
        hops = len(path) - 1
        if hops > max_hops:
            add(Violation("hop-limit", (subarea, sbs), f"subarea {subarea} routed over {hops} > {max_hops} hops"))
        paths.append(path)
    loads = sbs_loads(solution, paths)

    # per-SBS backhaul load against the capacity-derived subarea limit
    for i in sorted(plan.sbs_parent):
        kind, p = plan.sbs_parent[i]
        if not (0 <= i < n_sbs and 0 <= p < (n_ban if kind == "ban" else n_sbs)):
            continue  # already reported as link-undeployed
        limit = tables.sbs_limit((kind, p), i)
        if loads.get(i, 0) > limit:
            add(Violation("sbs-capacity", (i,), f"sbs {i} carries {loads[i]} subareas > limit {limit}"))

    # machine aggregation limits
    per_ma: dict[int, list[int]] = {}
    for m, j in plan.machine_cover.items():
        per_ma.setdefault(j, []).append(m)
    delta = scenario.radio.compression_ratio
    all_machines = scenario.machines
    n_mach = len(all_machines)
    for j in sorted(per_ma):
        machines = per_ma[j]
        if len(machines) > tables.machine_limit:
            add(Violation("ma-machine-limit", (j,), f"ma {j} covers {len(machines)} > {tables.machine_limit} machines"))
        k = plan.ma_parent.get(j)
        if k is not None and 0 <= k < n_ban and 0 <= j < n_ma:
            demand = sum(all_machines[m].rate_bps for m in machines if 0 <= m < n_mach) * delta
            capacity = tables.ban_ma_capacity[k][j]
            if demand > capacity + 1e-6:
                add(Violation("ma-capacity", (j,), f"ma {j} aggregates {demand:.0f} bps > link capacity {capacity:.0f}"))

    if budget is not None:
        total = cost(solution.deployment, scenario)
        if total > budget + TOLERANCE:
            add(Violation("budget", (), f"cost {total} exceeds budget {budget}"))
    return v


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def solution_to_dict(solution: Solution, scenario: Scenario, mtc_weight: float) -> dict:
    obj = objectives(solution, scenario, mtc_weight)
    plan = solution.plan
    cover = {str(s): f"ban:{k}" for s, k in plan.ban_cover.items()}
    cover.update({str(s): f"sbs:{i}" for s, i in plan.sbs_cover.items()})
    return {
        "deployment": {
            "bans": solution.deployment.open_bans(),
            "sbss": solution.deployment.open_sbss(),
            "mas": solution.deployment.open_mas(),
        },
        "cover": cover,
        "parents": {str(i): f"{kind}:{p}" for i, (kind, p) in plan.sbs_parent.items()},
        "ma_links": {str(j): k for j, k in plan.ma_parent.items()},
        "machines": {str(m): j for m, j in plan.machine_cover.items()},
        "objectives": {
            "f1": obj.cost,
            "f2": obj.uncovered_subareas,
            "f3": obj.uncovered_machines,
            "fc": obj.weighted_uncovered,
        },
    }


def _bad(name: str, expected: str, value) -> SolutionFormatError:
    return SolutionFormatError(f"{name}: expected {expected}, got {json.dumps(value, default=repr)[:40]}")


def _member(data: dict, key: str, kind: type, name: str):
    if key not in data:
        raise SolutionFormatError(f"{name}: missing")
    if not isinstance(data[key], kind):
        raise _bad(name, "an object" if kind is dict else "a list", data[key])
    return data[key]


def _int_text(text: str, name: str) -> int:
    """An integer written as text, as object keys and 'ban:<index>' are."""
    try:
        return int(text)
    except ValueError:
        raise _bad(name, "an integer", text) from None


def solution_from_dict(data: dict, scenario: Scenario) -> Solution:
    """Inverse of ``solution_to_dict``. A malformed field raises
    SolutionFormatError naming it. Deployment indices must name candidate
    sites; plan indices only need to be integers, since check_feasibility
    reports links to closed or missing sites as violations."""
    if not isinstance(data, dict):
        raise _bad("solution", "an object", data)
    deployment = _member(data, "deployment", dict, "deployment")
    chosen = {}
    for role, sites in (("bans", scenario.ban_sites), ("sbss", scenario.sbs_sites), ("mas", scenario.ma_sites)):
        chosen[role] = _member(deployment, role, list, f"deployment.{role}")
        for n, i in enumerate(chosen[role]):
            if type(i) is not int or not 0 <= i < len(sites):
                raise _bad(f"deployment.{role}[{n}]", f"a site index in [0, {len(sites)})", i)

    plan = ConnectionPlan()
    for key in ("cover", "parents"):
        for node, ref in _member(data, key, dict, key).items():
            name = f"{key}.{node}"
            kind, sep, idx = ref.partition(":") if isinstance(ref, str) else ("", "", "")
            if kind not in ("ban", "sbs") or not sep:
                raise _bad(name, "'ban:<index>' or 'sbs:<index>'", ref)
            i, idx = _int_text(node, name), _int_text(idx, name)
            if key == "parents":
                plan.sbs_parent[i] = (kind, idx)
            else:
                (plan.ban_cover if kind == "ban" else plan.sbs_cover)[i] = idx
    for key, links in (("ma_links", plan.ma_parent), ("machines", plan.machine_cover)):
        for node, idx in _member(data, key, dict, key).items():
            if type(idx) is not int:
                raise _bad(f"{key}.{node}", "an integer", idx)
            links[_int_text(node, f"{key}.{node}")] = idx
    return Solution(Deployment.of(scenario, **chosen), plan)
