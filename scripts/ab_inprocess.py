#!/usr/bin/env python3
"""Time a parent revision against this tree in one process: solves and setup.

Exports PARENT_REV's committed files to a temporary directory and imports its
``backhaul_planner`` package as ``backhaul_planner_parent``, next to this
tree's own ``backhaul_planner`` (from ``src/``, committed or not). Generates
the instances of a benchmark workload for one seed as ``bench/run.py`` does
(``gen`` through this tree's command line), then derives each instance's
tables and settings once per side, with the workload's ``gen`` and ``config``
read from ``bench/workload.py``. Each rep first times every side's setup, the
``gen`` + ``derive`` of every instance through that side's own command line
(the benchmark's ``setup_s`` work), then solves every instance once per side;
the side that goes first alternates. The scenario and sidecar bytes of the
two setups must be equal, and every solve's front, bounds, budgets
(``epsilons``) and ``multiplier_trace`` must equal the other side's by
``float.hex``. With ``--cli`` each rep times, in place of ``pareto.solve``,
every instance's whole ``solve`` command through that side's command line
(reading the scenario, deriving the tables, solving and writing: the
benchmark's ``solve_s`` work), and the two sides' ``front.csv`` and
``bounds.csv`` must be byte-equal. Prints, for the solves and for the setups, the
median seconds of a rep per side, the median of the per-rep ratios (this
tree / parent) and how many reps this tree won.

Both trees share one process, so the drift between processes that a pair of
``bench/run.py`` runs sees does not enter the ratio.

Usage:
    python3 scripts/ab_inprocess.py PARENT_REV --workload tiny-search --reps 20 [--seed 0] [--cli]
"""

import argparse
import contextlib
import importlib
import importlib.util
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from backhaul_planner import cli  # noqa: E402
from bench_pairs import export, git  # noqa: E402
from workload import WORKLOADS  # noqa: E402


def load_package(src: Path, name: str):
    """The ``backhaul_planner`` package under ``src``, imported as ``name``."""
    package = src / "backhaul_planner"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One tree's planner with its own scenario, tables and settings per instance."""

    def __init__(self, name: str, scenario_paths: list[Path], configs: list[dict], seeds: list[int]):
        self.name = name
        self.scenario = importlib.import_module(f"{name}.scenario")
        self.pareto = importlib.import_module(f"{name}.pareto")
        self.cli = importlib.import_module(f"{name}.cli")
        self.instances = []
        for path, config, seed in zip(scenario_paths, configs, seeds):
            sc = self.scenario.load_scenario(path)
            args = SimpleNamespace(seed=seed, theta=None, delta_c=None, delta_eps=None, restrict=None,
                                   max_iterations=None)
            self.instances.append((sc, self.scenario.derive_tables(sc), self.cli._solve_params(args, config)))
        self.times: list[float] = []
        self.setup_times: list[float] = []

    def setup(self, gens: list[list[str]], work: Path) -> list[bytes]:
        """``gen`` + ``derive`` of every instance through this side's command
        line, into ``work``; returns every scenario's and sidecar's bytes."""
        work.mkdir(parents=True, exist_ok=True)
        paths = [work / f"scenario{i}.json" for i in range(len(gens))]
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            for gen, path in zip(gens, paths):
                if self.cli.main([*gen, "--out", str(path)]) != 0 or self.cli.main(["derive", str(path)]) != 0:
                    raise SystemExit(f"{self.name}: gen or derive failed for {path.name}")
        self.setup_times.append(time.perf_counter() - start)
        return [Path(f).read_bytes() for path in paths for f in (path, f"{path}.tables.json")]

    def rep(self) -> list:
        """Solves every instance once; returns the fronts, bounds, budgets and
        multiplier traces, every float by float.hex."""
        out = []
        start = time.perf_counter()
        for sc, tables, params in self.instances:
            result = self.pareto.solve(sc, tables, params)
            out.append((
                [(float(e.objectives.cost).hex(), float(e.objectives.weighted_uncovered).hex(),
                  sorted(e.solution.deployment.sites)) for e in result.front],
                [(float(b.epsilon).hex(), float(b.bound).hex()) for b in result.bounds],
                [float(eps).hex() for eps in result.epsilons],
                [[x.hex() if isinstance(x, float) else x for x in row] for row in result.multiplier_trace],
            ))
        self.times.append(time.perf_counter() - start)
        return out

    def cli_rep(self, solves: list[list[str]], work: Path) -> list[bytes]:
        """Runs every instance's ``solve`` command into ``work``; returns every
        ``front.csv`` and ``bounds.csv``'s bytes."""
        outs = [work / f"out{i}" for i in range(len(solves))]
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            for solve, out in zip(solves, outs):
                if self.cli.main([*solve, "--out", str(out)]) != 0:
                    raise SystemExit(f"{self.name}: solve failed for {out.name}")
        self.times.append(time.perf_counter() - start)
        return [(out / name).read_bytes() for out in outs for name in ("front.csv", "bounds.csv")]


def summary(label: str, parent: list[float], change: list[float]) -> None:
    ratios = [c / p for p, c in zip(parent, change)]
    print(f"  {label}: parent median {statistics.median(parent):.4f} s, change median {statistics.median(change):.4f} s, "
          f"ratio median {statistics.median(ratios):.3f} (change / parent), change wins {sum(r < 1 for r in ratios)} "
          f"of {len(ratios)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", metavar="PARENT_REV", help="the revision this tree is compared against")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cli", action="store_true", help="time the whole solve command, not pareto.solve")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    workload = WORKLOADS[args.workload]
    k = len(workload.gen)
    seeds = [args.seed * k + i for i in range(k)]
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        tree = Path(tmp, "parent-tree")
        export(git("rev-parse", args.parent), tree)
        gens, paths = [], []
        for i, (gen, seed) in enumerate(zip(workload.gen, seeds)):
            config = Path(tmp, f"gen{i}.json")
            config.write_text(json.dumps({"gen": gen}))
            preset = ["--preset", workload.preset] if workload.preset else []
            gens.append(["gen", *preset, "--config", str(config), "--seed", str(seed)])
            paths.append(Path(tmp, f"scenario{i}.json"))
            with contextlib.redirect_stdout(sys.stderr):
                if cli.main([*gens[-1], "--out", str(paths[-1])]) != 0:
                    raise SystemExit(f"gen failed for instance {i}")
        load_package(tree / "src", "backhaul_planner_parent")
        config = Path(tmp, "solve.json")
        config.write_text(json.dumps(workload.config))
        solves = [["solve", str(path), "--config", str(config), "--seed", str(seed)]
                  for path, seed in zip(paths, seeds)]
        configs = [workload.config] * k
        sides = {"parent": Side("backhaul_planner_parent", paths, configs, seeds),
                 "change": Side("backhaul_planner", paths, configs, seeds)}

        for rep in range(args.reps):
            order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
            written = {side: sides[side].setup(gens, Path(tmp, side)) for side in order}
            if written["parent"] != written["change"]:
                print(f"rep {rep}: the scenario or sidecar bytes differ", file=sys.stderr)
                return 1
            if args.cli:
                results = {side: sides[side].cli_rep(solves, Path(tmp, side)) for side in order}
            else:
                results = {side: sides[side].rep() for side in order}
            if results["parent"] != results["change"]:
                what = "front.csv or bounds.csv" if args.cli else "fronts, bounds, budgets or multiplier traces"
                print(f"rep {rep}: the {what} differ", file=sys.stderr)
                return 1
            print(f"rep {rep}: solve parent {sides['parent'].times[-1]:.4f} s, change "
                  f"{sides['change'].times[-1]:.4f} s; setup parent {sides['parent'].setup_times[-1]:.4f} s, "
                  f"change {sides['change'].setup_times[-1]:.4f} s", file=sys.stderr)

    equal = "front.csv and bounds.csv" if args.cli else "fronts, bounds, budgets, multiplier traces"
    print(f"{args.workload}: {args.reps} reps, seed {args.seed}, {equal}, scenarios and sidecars equal in every rep")
    summary("solve command" if args.cli else "solve", sides["parent"].times, sides["change"].times)
    summary("setup", sides["parent"].setup_times, sides["change"].setup_times)
    return 0


if __name__ == "__main__":
    sys.exit(main())
