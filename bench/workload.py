"""Run one benchmark workload in this process and print its result.

run.py starts this file in a child process of its own, with ``src/`` on the
path and BLAS pinned to one thread. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; everything else goes to standard error.

A run sets the workload's instances up at least five times and for at least
3 s (``setup_s`` is the median), then repeats whole rounds until ``--seconds`` have passed. A round
puts every instance of the workload through the planner once; rounds repeat
the same instances, so every round must write byte-identical ``front.csv``
and ``bounds.csv``. After each round, untimed, the artifacts are checked by
check.py. With ``--trace 1`` untraced and traced rounds alternate, the
``_assign`` probe runs at the end, and the per-layer metrics are reported
per traced round.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import check
from backhaul_planner import cli, oracle
from backhaul_planner.lagrangian import Workspace, assign_connections
from backhaul_planner.model import Deployment
from backhaul_planner.scenario import (
    derive_tables,
    generate_scenario,
    load_scenario,
    load_tables,
    preset_gen_params,
    scenario_to_dict,
)
from tracing import Tracer

# set-up is repeated at least this often and for at least this long
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 3.0
# Check codes that a fault of the planner trips on some seeds only (see the
# FOUND lines in CHANGES.md). They are printed but do not fail the run, since
# whether a run fails must not depend on its seed.
REPORTED_ONLY = {"bound-above-front"}
PROBE_SIZES = (5, 10, 20, 40)
PROBE_MIN_REPS = 3
PROBE_MIN_S = 0.3

# Wide-band, higher-power radio for the 50 m box: coverage radii around 20 m
# and live backhaul links across the box (as in the oracle tests).
TINY_GEN = {
    "width": 50.0,
    "height": 50.0,
    "subarea_side": 10.0,
    "machine_rate_bps": 5e4,
    "max_relays": 2,
    "radio": {
        "access": {"los_exponent": 2.0, "nlos_exponent": 3.3, "los_shadowing_db": 5.2,
                   "nlos_shadowing_db": 7.6, "bandwidth_hz": 5e9},
        "backhaul": {"los_exponent": 2.0, "nlos_exponent": 3.5, "los_shadowing_db": 4.2,
                     "nlos_shadowing_db": 7.9, "bandwidth_hz": 5e9},
        "ban_tx_dbm": 40.0,
        "sbs_tx_dbm": 40.0,
        "user_density_per_m2": 2e-5,
        "machine_limit": 6,
        "ma_range_m": 25.0,
    },
}

# 200 m box with 3/15/8 sites and 400 machines.
MID_GEN = {
    "width": 200.0,
    "height": 200.0,
    "subarea_side": 10.0,
    "n_ban": 3,
    "n_sbs": 15,
    "n_ma": 8,
    "n_machines": 400,
    "machine_rate_bps": 5e4,
    "ban_slots": 5,
    "max_relays": 2,
    "radio": {"ban_tx_dbm": 40.0, "sbs_tx_dbm": 40.0, "machine_limit": 100, "ma_range_m": 60.0},
}


@dataclass(frozen=True)
class Workload:
    """One set of inputs. Instance ``i`` of a run with seed ``n`` is
    generated with seed ``n * len(gen) + i`` from ``gen[i]``."""

    gen: list[dict]
    config: dict
    preset: str | None = None
    oracle: bool = False  # compute the exact front and check against it
    pipeline: bool = False  # run `check` on every front entry and `report`

    @property
    def delta_c(self) -> float:
        return self.config["solve"].get("delta_c", 1.0)


WORKLOADS = {
    # paper-fig2 at the top budget with 30 SBS and 5 aggregator sites: the
    # aggregators hold 5 of the 25 anchor slots, so 29 of the 30 SBSs attach
    # in chains and every seed does about the same assignment work.
    "fig2-dense": Workload(
        gen=[{"n_sbs": 30, "n_ma": 5}] * 2,
        preset="paper-fig2",
        config={
            "solve": {"delta_c": 1.0, "n_lagrangian": 1, "max_iterations": 1},
            "search": {"n_outer": 1, "n_inner": 1, "n_div": 2, "n_swap": 80, "tenure_ban": 0, "tenure_station": 0},
        },
    ),
    # oracle-sized instances with a fixed make-up per slot, so that every
    # seed does the same amount of search
    "tiny-search": Workload(
        gen=[
            {**TINY_GEN, "n_ban": 3, "n_sbs": 2, "n_ma": 2, "n_machines": 10, "ban_slots": 3},
            {**TINY_GEN, "n_ban": 2, "n_sbs": 3, "n_ma": 1, "n_machines": 8, "ban_slots": 2},
        ],
        config={
            "solve": {"n_lagrangian": 3},
            "search": {"n_outer": 50, "n_inner": 50, "n_div": 2, "tenure_ban": 7, "tenure_station": 10},
        },
        oracle=True,
    ),
    "mid-pipeline": Workload(
        gen=[MID_GEN] * 5,
        config={
            "solve": {"delta_c": 4.0, "n_lagrangian": 1},
            "search": {"n_outer": 1, "n_inner": 2, "n_div": 1, "n_swap": 20, "tenure_ban": 0, "tenure_station": 1},
        },
        pipeline=True,
    ),
}

END_TO_END = {
    "wall_s": "s",
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "gap_ratio_max": "1",
}

PER_LAYER = {
    "scenario.derive_tables.calls": "count",
    "scenario.derive_tables.s": "s",
    "scenario.load_tables.calls": "count",
    "scenario.load_tables.s": "s",
    "lagrangian.assign.calls": "count",
    "lagrangian.assign.s": "s",
    "lagrangian.assign.share": "1",
    "lagrangian.anchor_phase.calls": "count",
    "lagrangian.anchor_phase.s": "s",
    "lagrangian.evaluate.calls": "count",
    "lagrangian.evaluate.s": "s",
    "lagrangian.evaluate.hit_ratio": "1",
    "lagrangian.build_plan.calls": "count",
    "lagrangian.build_plan.s": "s",
    **{f"lagrangian.assign_ms.n{n}{sfx}": "ms" for sfx in ("", "_lam") for n in PROBE_SIZES},
    "tabu.solve_relaxed.calls": "count",
    "tabu.solve_relaxed.s": "s",
    "tabu.solve_relaxed.self_s": "s",
    "tabu.neighborhood.calls": "count",
    "tabu.neighborhood.s": "s",
    "tabu.neighborhood.moves": "count",
    "tabu.diversify.calls": "count",
    "pareto.solve.s": "s",
    "pareto.solve.self_s": "s",
    "pareto.budgets": "count",
    "pareto.repair_solution.calls": "count",
    "pareto.repair_solution.s": "s",
    "pareto.merge_front.calls": "count",
    "pareto.merge_front.s": "s",
    "model.check_feasibility.calls": "count",
    "model.check_feasibility.s": "s",
    "oracle.exact_front.calls": "count",
    "oracle.exact_front.s": "s",
    "cli.derive.s": "s",
    "cli.solve.s": "s",
    "cli.check.s": "s",
    "cli.report.s": "s",
    "trace.overhead_s": "s",
}


def _cli(*argv: str) -> int:
    # the planner's messages go to stderr so that stdout carries only the result
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(list(argv))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Run:
    workload: Workload
    seed: int
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    hashes: dict | None = None
    gap_ratios: list[float] = field(default_factory=list)

    def instances(self):
        k = len(self.workload.gen)
        for i, gen in enumerate(self.workload.gen):
            yield i, gen, self.seed * k + i, self.work / f"inst{i}"

    def prepare(self) -> None:
        """Write the config files the CLI reads; not timed."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        (self.work / "solve.json").write_text(json.dumps(self.workload.config))
        for i, gen, _, inst in self.instances():
            inst.mkdir()
            (inst / "gen.json").write_text(json.dumps({"gen": gen}))

    def setup(self) -> float:
        """gen + derive of every instance through the CLI; returns seconds."""
        start = time.perf_counter()
        for i, gen, s, inst in self.instances():
            preset = ["--preset", self.workload.preset] if self.workload.preset else []
            scen = str(inst / "scenario.json")
            if _cli("gen", *preset, "--config", str(inst / "gen.json"), "--seed", str(s), "--out", scen) != 0:
                raise RuntimeError(f"gen failed for instance {i}")
            if _cli("derive", scen) != 0:
                raise RuntimeError(f"derive failed for instance {i}")
        return time.perf_counter() - start

    def round(self) -> tuple[float, float]:
        """One pass over every instance; returns (wall, solve) seconds of the
        planner's own work, then checks the artifacts untimed."""
        wall = solve = 0.0
        hashes = {}
        for i, gen, s, inst in self.instances():
            scen = inst / "scenario.json"
            out = inst / "out"
            shutil.rmtree(out, ignore_errors=True)
            oracle._enumerators.clear()  # every round pays for its exact front, as a fresh process would
            self.attempted += 1
            exact = None
            try:
                start = time.perf_counter()
                rc = _cli("solve", str(scen), "--config", str(self.work / "solve.json"), "--out", str(out),
                          "--seed", str(s))
                solved = time.perf_counter()
                if rc != 0:
                    raise RuntimeError(f"solve exited {rc}")
                if self.workload.oracle:
                    sc = load_scenario(scen)
                    exact = oracle.exact_front(sc, load_tables(str(scen) + ".tables.json", sc))
                if self.workload.pipeline:
                    with (out / "front.csv").open(newline="") as fh:
                        files = [row["solution_file"] for row in csv.DictReader(fh)]
                    rejected = [f for f in files if _cli("check", str(scen), str(out / f)) != 0]
                    if _cli("report", "--out", str(out)) != 0:
                        raise RuntimeError("report failed")
                done = time.perf_counter()
            except Exception:
                self.failed += 1
                traceback.print_exc()
                continue
            wall += done - start
            solve += solved - start
            if self.workload.pipeline and rejected:
                self.problems.append(f"inst{i}: `check` rejects {rejected}")
            self.check(i, scen, out, exact)
            hashes[f"inst{i}"] = {name: _sha256(out / name) for name in ("front.csv", "bounds.csv")}
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            self.problems.append("a round wrote artifacts that differ from the first round's")
        return wall, solve

    def check(self, i: int, scen: Path, out: Path, exact) -> None:
        inst = check.Instance.load(scen)
        for code, detail in check.check_run(inst, out, self.workload.delta_c, exact):
            (self.known if code in REPORTED_ONLY else self.problems).append(f"inst{i}: {code}: {detail}")
        if len(self.gap_ratios) < len(self.workload.gen):
            ratio = check.gap_ratio_max(inst, out)
            if ratio is None:
                self.problems.append(f"inst{i}: no budget has a positive bound and a front entry")
            else:
                self.gap_ratios.append(ratio)


def probe_assign(seed: int, run: Run) -> dict[str, float]:
    """Milliseconds per `assign_connections` call on paper-fig2 seed 0 with
    every anchor open, no aggregator open and SBSs 0..n-1 open, at zero and at
    seeded random multipliers; each plan's value is checked by check.py."""
    sc = generate_scenario(preset_gen_params("paper-fig2"), 0)
    tb = derive_tables(sc)
    inst = check.Instance(scenario_to_dict(sc), dataclasses.asdict(tb))
    ws = Workspace(sc, tb)
    rng = random.Random(seed)
    lam = tuple(rng.uniform(0.0, 0.5) for _ in sc.sbs_sites)
    zero = (0.0,) * len(sc.sbs_sites)
    out = {}
    for n in PROBE_SIZES:
        dep = Deployment.of(sc, bans=range(len(sc.ban_sites)), sbss=range(n))
        for suffix, mult in (("", zero), ("_lam", lam)):
            run.attempted += 1
            times = []
            while len(times) < PROBE_MIN_REPS or sum(times) < PROBE_MIN_S:
                start = time.perf_counter()
                plan, value = assign_connections(dep, mult, sc, tb, workspace=ws)
                times.append(time.perf_counter() - start)
            out[f"lagrangian.assign_ms.n{n}{suffix}"] = statistics.median(times) * 1e3
            sol = {
                "cover": {**{str(s): f"ban:{k}" for s, k in plan.ban_cover.items()},
                          **{str(s): f"sbs:{i}" for s, i in plan.sbs_cover.items()}},
                "parents": {str(i): f"{kind}:{p}" for i, (kind, p) in plan.sbs_parent.items()},
                "machines": {str(m): j for m, j in plan.machine_cover.items()},
            }
            expected = check.relaxed_value(inst, sol, mult)
            if abs(expected - value) > 1e-6 * max(1.0, abs(expected)):
                run.problems.append(f"probe n{n}{suffix}: value {value}, recomputed {expected}")
    return out


def layer_metrics(setup: Tracer, rounds: Tracer, n_rounds: int) -> dict[str, float]:
    """Per traced round; set-up work (gen, derive) is counted once."""

    def value(stat_name: str, attr: str) -> float:
        total = getattr(setup.stat(stat_name), attr) + getattr(rounds.stat(stat_name), attr) / n_rounds
        return float(total)

    out = {}
    for name in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind in ("calls", "s", "self_s") and stem:
            out[name] = value(stem, {"calls": "calls", "s": "total", "self_s": "self_time"}[kind])
    ev = rounds.stat("lagrangian.evaluate")
    out["lagrangian.evaluate.hit_ratio"] = ev.extra / ev.calls if ev.calls else 0.0
    out["tabu.neighborhood.moves"] = value("tabu.neighborhood", "extra")
    out["pareto.budgets"] = value("pareto.front_search", "calls")
    solve_total = rounds.stat("pareto.solve").total
    out["lagrangian.assign.share"] = rounds.stat("lagrangian.assign").total / solve_total if solve_total else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    run = Run(WORKLOADS[args.workload], args.seed, out_dir / "work")
    run.prepare()
    setup_tracer, round_tracer = Tracer(), Tracer()
    if args.trace:
        setup_tracer.install()
        try:
            run.setup()
        finally:
            setup_tracer.uninstall()
        setups = []
    else:
        setups = [run.setup()]
        while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_S:
            setups.append(run.setup())

    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace and len(plain) > len(traced):
            round_tracer.install()
            try:
                traced.append(run.round())
            finally:
                round_tracer.uninstall()
        else:
            plain.append(run.round())
        if time.perf_counter() >= deadline and (traced or not args.trace):
            break

    if args.trace:
        metrics = layer_metrics(setup_tracer, round_tracer, len(traced))
        metrics.update(probe_assign(args.seed, run))
        metrics["trace.overhead_s"] = statistics.median(w for w, _ in traced) - statistics.median(w for w, _ in plain)
        units = PER_LAYER
        offset = len(setup_tracer.spans)
        spans = setup_tracer.spans + [
            {**span, "parent": None if span["parent"] is None else span["parent"] + offset}
            for span in round_tracer.spans
        ]
        dump = {
            "workload": args.workload,
            "seed": args.seed,
            "rounds": {"plain_wall_s": [w for w, _ in plain], "traced_wall_s": [w for w, _ in traced]},
            "setup_stats": {k: vars(v) for k, v in setup_tracer.stats.items()},
            "round_stats": {k: vars(v) for k, v in round_tracer.stats.items()},
            "spans": spans,
            "hashes": run.hashes,
        }
        (out_dir / "trace.json").write_text(json.dumps(dump, indent=1))
    else:
        metrics = {
            "wall_s": statistics.median(w for w, _ in plain),
            "solve_s": statistics.median(s for _, s in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "gap_ratio_max": statistics.fmean(run.gap_ratios),
        }
        units = END_TO_END

    for line in dict.fromkeys(run.problems):
        print(f"CHECK FAILED {args.workload}: {line}", file=sys.stderr)
    for line in dict.fromkeys(run.known):
        print(f"KNOWN FAULT, not gated, {args.workload}: {line}", file=sys.stderr)
    for inst, names in sorted(run.hashes.items()):
        print(f"{args.workload} {inst}: " + " ".join(f"{k} {v}" for k, v in names.items()), file=sys.stderr)
    print(f"{args.workload} round wall s: plain {[round(w, 3) for w, _ in plain]}"
          f" traced {[round(w, 3) for w, _ in traced]}", file=sys.stderr)
    correct = not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
