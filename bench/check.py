"""Output checks for the benchmark, written apart from the solver.

The checks read only the scenario JSON, the derived-tables sidecar JSON and
the files ``backhaul-planner solve`` writes (``front.csv``, ``bounds.csv`` and
``solutions/*.json``). Distances, costs, objectives and chain loads are
recomputed here from coordinates and table entries; nothing is imported from
``backhaul_planner``.

Every check returns a list of problems, each a ``(code, detail)`` pair. An
empty list means the artifact passed.

Deliberately not checked: equality with the oracle front (the search is a
heuristic), ``bound <= exact optimum`` (bounds are flagged heuristic) and
artifact hashes against a stored copy (a later change may truly correct the
method).
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

TOL = 1e-9
ROLES = (("ban", "bans"), ("sbs", "sbss"), ("ma", "mas"))


class Instance:
    """The facts of one scenario and its tables that the checks use."""

    def __init__(self, scenario: dict, tables: dict):
        side = scenario["subarea_side"]
        nx = math.ceil(scenario["area"]["w"] / side)
        ny = math.ceil(scenario["area"]["h"] / side)
        self.centers = [((ix + 0.5) * side, (iy + 0.5) * side) for iy in range(ny) for ix in range(nx)]
        self.sites = {role: [(s["x"], s["y"]) for s in scenario[f"{role}_sites"]] for role, _ in ROLES}
        self.costs = {role: [s["cost"] for s in scenario[f"{role}_sites"]] for role, _ in ROLES}
        self.machines = [(m["x"], m["y"], m["rate"]) for m in scenario["machines"]]
        self.slots = scenario["n_b"]
        self.max_hops = scenario["n_relays"] + 1
        self.theta = scenario["radio"]["mtc_weight"]
        self.compression = scenario["radio"]["compression_ratio"]
        self.radius = {"ban": tables["ban_radius_m"], "sbs": tables["sbs_radius_m"]}
        self.ma_range = tables["ma_range_m"]
        self.machine_limit = tables["machine_limit"]
        self.link_limit = {"ban": tables["ban_sbs_limit"], "sbs": tables["sbs_sbs_limit"]}
        self.ma_capacity = tables["ban_ma_capacity"]

    @classmethod
    def load(cls, scenario_path) -> "Instance":
        """Read a scenario file and the ``<scenario>.tables.json`` sidecar next to it."""
        scenario = json.loads(Path(scenario_path).read_text())
        tables = json.loads(Path(str(scenario_path) + ".tables.json").read_text())
        return cls(scenario, tables)

    @property
    def n_subareas(self) -> int:
        return len(self.centers)

    @property
    def fc_empty(self) -> float:
        return self.n_subareas + self.theta * len(self.machines)

    @property
    def total_cost(self) -> float:
        return sum(sum(costs) for costs in self.costs.values())

    @property
    def cheapest_anchor(self) -> float:
        return min(self.costs["ban"])


def _ref(text: str) -> tuple[str, int]:
    role, idx = text.split(":")
    return role, int(idx)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def recompute_objectives(inst: Instance, sol: dict) -> dict:
    """f1 from the site costs, f2/f3/fc from the cover and machine maps."""
    dep = sol["deployment"]
    f1 = sum(inst.costs[role][i] for role, key in ROLES for i in dep[key])
    f2 = inst.n_subareas - len(sol["cover"])
    f3 = len(inst.machines) - len(sol["machines"])
    return {"f1": f1, "f2": f2, "f3": f3, "fc": f2 + inst.theta * f3}


def check_solution(inst: Instance, sol: dict, epsilon: float | None = None) -> list[tuple[str, str]]:
    """Every constraint of the deployment problem, recomputed for one solution."""
    problems: list[tuple[str, str]] = []

    def bad(code: str, detail: str) -> None:
        problems.append((code, detail))

    dep = sol["deployment"]
    opened = {role: set(dep[key]) for role, key in ROLES}
    for role, ids in opened.items():
        for i in ids:
            if not 0 <= i < len(inst.sites[role]):
                bad("site-index", f"{role} {i} does not exist")
    if problems:
        return problems

    got = recompute_objectives(inst, sol)
    for name, value in got.items():
        if not _close(value, sol["objectives"][name]):
            bad(f"objective-{name}", f"solution says {sol['objectives'][name]}, recomputed {value}")
    if epsilon is not None and got["f1"] > epsilon + TOL:
        bad("budget", f"cost {got['f1']} above budget {epsilon}")

    cover = {int(s): _ref(v) for s, v in sol["cover"].items()}
    parents = {int(i): _ref(v) for i, v in sol["parents"].items()}
    links = {int(j): int(k) for j, k in sol["ma_links"].items()}
    machines = {int(m): int(j) for m, j in sol["machines"].items()}

    for s, (role, i) in sorted(cover.items()):
        if not 0 <= s < inst.n_subareas:
            bad("subarea-index", f"subarea {s} does not exist")
        elif role not in inst.radius or i not in opened[role]:
            bad("cover-closed", f"subarea {s} covered by closed {role} {i}")
        elif math.dist(inst.sites[role][i], inst.centers[s]) > inst.radius[role] + TOL:
            bad("access-range", f"subarea {s} out of range of {role} {i}")
        elif role == "sbs" and i not in parents:
            bad("cover-unlinked", f"subarea {s} covered by sbs {i} without backhaul")

    # chains: acyclic, ending at an open anchor, within the hop limit
    paths: dict[int, list[int]] = {}
    for i in opened["sbs"] - parents.keys():
        bad("sbs-unlinked", f"open sbs {i} has no backhaul parent")
    for i in sorted(parents):
        if i not in opened["sbs"]:
            bad("link-closed", f"closed sbs {i} has a backhaul parent")
            continue
        path = [i]
        while parents[path[-1]][0] == "sbs":
            p = parents[path[-1]][1]
            if p in path:
                bad("chain-cycle", f"sbs {i} reaches a cycle at sbs {p}")
                break
            if p not in parents or p not in opened["sbs"]:
                bad("chain-broken", f"sbs {i} hangs off sbs {p}, which has no open path")
                break
            path.append(p)
        else:
            role, k = parents[path[-1]]
            if role != "ban" or k not in opened["ban"]:
                bad("anchor-closed", f"sbs {i} chain ends at closed {role} {k}")
            elif len(path) > inst.max_hops:
                bad("hop-limit", f"sbs {i} is {len(path)} hops from ban {k} > {inst.max_hops}")
            else:
                paths[i] = path

    # subtree load against the link limit from each SBS's parent
    load: Counter = Counter()
    for s, (role, i) in cover.items():
        if role == "sbs":
            load.update(paths.get(i, ()))
    for i in sorted(paths):
        role, p = parents[i]
        limit = inst.link_limit[role][p][i]
        if load[i] > limit:
            bad("link-load", f"sbs {i} carries {load[i]} subareas > limit {limit} from {role} {p}")

    slot_use = Counter(k for role, k in parents.values() if role == "ban") + Counter(links.values())
    for k, used in sorted(slot_use.items()):
        if used > inst.slots:
            bad("anchor-slots", f"ban {k} serves {used} > {inst.slots} stations")

    # machine aggregators
    for j in opened["ma"] - links.keys():
        bad("ma-unlinked", f"open ma {j} has no anchor link")
    for j, k in sorted(links.items()):
        if j not in opened["ma"] or k not in opened["ban"]:
            bad("link-closed", f"ma {j} -> ban {k} touches a closed site")
    per_ma: dict[int, list[int]] = defaultdict(list)
    for m, j in sorted(machines.items()):
        if not 0 <= m < len(inst.machines):
            bad("machine-index", f"machine {m} does not exist")
        elif j not in opened["ma"]:
            bad("cover-closed", f"machine {m} collected by closed ma {j}")
        elif math.dist(inst.machines[m][:2], inst.sites["ma"][j]) > inst.ma_range + TOL:
            bad("machine-range", f"machine {m} out of reach of ma {j}")
        else:
            per_ma[j].append(m)
    for j, ms in sorted(per_ma.items()):
        if len(ms) > inst.machine_limit:
            bad("ma-machine-limit", f"ma {j} collects {len(ms)} > {inst.machine_limit} machines")
        k = links.get(j)
        if k is not None and k in opened["ban"]:
            demand = sum(inst.machines[m][2] for m in ms) * inst.compression
            if demand > inst.ma_capacity[k][j] + 1e-6:
                bad("ma-capacity", f"ma {j} sends {demand:.0f} bps > {inst.ma_capacity[k][j]:.0f} to ban {k}")
    return problems


def relaxed_value(inst: Instance, sol: dict, multipliers) -> float:
    """The relaxed objective of a connection plan: fc plus, per attached SBS,
    its multiplier times (subtree load - link limit from its parent)."""
    parents = {int(i): _ref(v) for i, v in sol["parents"].items()}
    load: Counter = Counter()
    for s, v in sol["cover"].items():
        role, node = _ref(v)
        while role == "sbs":
            load[node] += 1
            role, node = parents[node]
    fc = inst.n_subareas - len(sol["cover"]) + inst.theta * (len(inst.machines) - len(sol["machines"]))
    return fc + sum(
        multipliers[i] * (load[i] - inst.link_limit[role][p][i]) for i, (role, p) in parents.items()
    )


def read_front(out_dir) -> tuple[list[dict], list[dict]]:
    out = Path(out_dir)
    with (out / "front.csv").open(newline="") as fh:
        front = list(csv.DictReader(fh))
    with (out / "bounds.csv").open(newline="") as fh:
        bounds = list(csv.DictReader(fh))
    return front, bounds


def _best_within(points: list[tuple[float, float]], budget: float) -> float:
    return min((fc for cost, fc in points if cost <= budget + TOL), default=math.inf)


def check_run(
    inst: Instance,
    out_dir,
    delta_c: float,
    exact: list[tuple[float, float]] | None = None,
) -> list[tuple[str, str]]:
    """Every front row's solution file, plus the properties of the front and
    the budget sweep; ``exact`` is the oracle front, when there is one."""
    front, bounds = read_front(out_dir)
    problems: list[tuple[str, str]] = []

    def bad(code: str, detail: str) -> None:
        problems.append((code, detail))

    points = []
    empty_seen = False
    for n, row in enumerate(front):
        sol = json.loads((Path(out_dir) / row["solution_file"]).read_text())
        for code, detail in check_solution(inst, sol, float(row["epsilon"])):
            bad(code, f"row {n}: {detail}")
        got = recompute_objectives(inst, sol)
        for name, value in got.items():
            if not _close(value, float(row[name])):
                bad(f"row-{name}", f"row {n}: front.csv says {row[name]}, recomputed {value}")
        points.append((got["f1"], got["fc"]))
        if got["f1"] == 0 and _close(got["fc"], inst.fc_empty):
            empty_seen = True
    if not empty_seen:
        bad("front-empty", "the empty deployment is missing from the front")
    for n in range(1, len(points)):
        (c0, f0), (c1, f1) = points[n - 1], points[n]
        if not (c1 > c0 and f1 < f0):
            bad("front-order", f"rows {n - 1}, {n}: ({c0}, {f0}) then ({c1}, {f1})")

    eps = [float(r["epsilon"]) for r in bounds]
    if not eps:
        bad("budget-none", "bounds.csv lists no budget")
    else:
        if not _close(eps[0], inst.total_cost):
            bad("budget-start", f"first budget {eps[0]} is not the total site cost {inst.total_cost}")
        max_iter = math.floor((inst.total_cost - inst.cheapest_anchor) / delta_c + TOL) + 1
        if len(eps) > max_iter:
            bad("budget-count", f"{len(eps)} budgets > {max_iter}")
        for a, b in zip(eps, eps[1:]):
            if not b < a:
                bad("budget-order", f"budget {b} follows {a}")
        if eps[-1] < inst.cheapest_anchor - TOL:
            bad("budget-floor", f"budget {eps[-1]} below the cheapest anchor {inst.cheapest_anchor}")
    bound_at = {float(r["epsilon"]): float(r["bound"]) for r in bounds}
    for n, row in enumerate(front):
        e = float(row["epsilon"])
        if e in bound_at and not _close(float(row["bound"]), bound_at[e]):
            bad("row-bound", f"row {n}: bound {row['bound']} differs from bounds.csv {bound_at[e]}")
    for e, bound in bound_at.items():
        best = _best_within(points, e)
        if bound > best + TOL:
            bad("bound-above-front", f"budget {e}: bound {bound} above the best front fc {best}")

    if exact is not None:
        for cost, fc in points:
            best = _best_within(exact, cost)
            if fc < best - TOL:
                bad("beats-oracle", f"front point ({cost}, {fc}) beats the exact best {best}")
    return problems


def gap_ratio_max(inst: Instance, out_dir) -> float | None:
    """The largest ratio of best front fc to bound over the budgets with a
    positive bound; None when no budget has one."""
    front, bounds = read_front(out_dir)
    points = [(float(r["f1"]), float(r["fc"])) for r in front]
    ratios = []
    for r in bounds:
        bound = float(r["bound"])
        best = _best_within(points, float(r["epsilon"]))
        if bound > 0 and math.isfinite(best):
            ratios.append(best / bound)
    return max(ratios, default=None)
