"""Operator command line: gen, derive, solve, check, oracle, report.

Exit codes: 0 success, 1 violations or enumeration refusal, 2 bad input.
Every command that writes artifacts also writes a run manifest carrying the
resolved configuration, seeds, and the sha256 of each output so a run can be
reproduced and verified bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
from functools import cache
from pathlib import Path

from . import __version__, oracle as oracle_mod, pareto
from .model import check_feasibility, solution_from_dict, solution_to_dict
from .scenario import (
    TOLERANCE,
    GenParams,
    ScenarioFormatError,
    derive_tables,
    generate_scenario,
    load_scenario,
    preset_gen_params,
    radio_from_dict,
    resolve_theta,
    save_scenario,
    save_tables,
    scenario_hash,
)
from .tabu import SearchParams

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2

FRONT_FIELDS = ["epsilon", "f1", "f2", "f3", "fc", "bound", "heuristic_bound", "solution_file"]


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    directory: Path, command: str, info: dict, outputs: list[Path], started: float, name: str = "manifest.json"
) -> None:
    manifest = {
        "tool_version": __version__,
        "command": command,
        "elapsed_s": round(time.time() - started, 3),
        "outputs": {p.name: _sha256(p) for p in outputs},
        **info,
    }
    path = directory / name
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise CliError("config must be a JSON object")
    return data


def _section(config: dict, name: str) -> dict:
    """A copy of one section of the config; a section must be an object."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise CliError(f"bad {name} config: expected an object, got {json.dumps(section)[:40]}")
    return dict(section)


def _gen_params(args, config: dict) -> GenParams:
    params = preset_gen_params(args.preset) if args.preset else GenParams()
    overrides = _section(config, "gen")
    for key in ("ban_positions", "sbs_positions", "ma_positions"):
        if overrides.get(key) is not None:
            try:
                overrides[key] = tuple((x, y) for x, y in overrides[key])
            except (TypeError, ValueError):
                raise CliError(f"bad gen config: {key} must be a list of [x, y] pairs") from None
    try:
        if "radio" in overrides:
            overrides["radio"] = radio_from_dict(overrides["radio"])
        return dataclasses.replace(params, **overrides)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad gen config: {exc}")


def _solve_params(args, config: dict) -> pareto.SolveParams:
    search_over = _section(config, "search")
    if args.seed is not None:
        search_over["seed"] = args.seed
    try:
        search = SearchParams(**search_over)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad search config: {exc}")
    solve_over = _section(config, "solve")
    for flag in ("theta", "delta_c", "delta_eps", "restrict", "max_iterations"):
        value = getattr(args, flag, None)
        if value is not None:
            solve_over[flag] = value
    try:
        return pareto.SolveParams(search=search, **solve_over)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad solve config: {exc}")


def _read_scenario(path: str):
    try:
        return load_scenario(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read scenario {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"scenario {path} is not valid JSON: {exc}")
    except ScenarioFormatError as exc:
        raise CliError(str(exc))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    started = time.time()
    config = _load_config(args.config)
    params = _gen_params(args, config)
    try:
        scenario = generate_scenario(params, args.seed or 0)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad gen config: {exc}")
    out = Path(args.out or "scenario.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, out)
    _write_manifest(
        out.parent,
        "gen",
        {"seed": args.seed or 0, "scenario_hash": scenario_hash(scenario), "preset": args.preset},
        [out],
        started,
        name=out.name + ".manifest.json",
    )
    print(f"wrote {out} ({len(scenario.ban_sites)}/{len(scenario.sbs_sites)}/{len(scenario.ma_sites)} sites, "
          f"{scenario.n_machines} machines, {scenario.n_subareas} subareas)")
    return EXIT_OK


def cmd_derive(args) -> int:
    started = time.time()
    scenario = _read_scenario(args.scenario)
    tables = derive_tables(scenario)
    out = Path(args.out or (args.scenario + ".tables.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    save_tables(scenario, tables, out)
    _write_manifest(
        out.parent,
        "derive",
        {"scenario_hash": scenario_hash(scenario)},
        [out],
        started,
        name=out.name + ".manifest.json",
    )
    print(f"wrote {out} (anchor radius {tables.ban_radius_m:.2f} m, station radius {tables.sbs_radius_m:.2f} m)")
    return EXIT_OK


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_front_csv(path: Path, front, bounds, solution_files) -> Path:
    lookup = {rec.epsilon: rec for rec in bounds}
    rows = []
    for entry, fname in zip(front, solution_files):
        rec = lookup.get(entry.epsilon)
        rows.append(
            [
                entry.epsilon,
                entry.objectives.cost,
                entry.objectives.uncovered_subareas,
                entry.objectives.uncovered_machines,
                entry.objectives.weighted_uncovered,
                rec.bound if rec else "",
                (str(rec.heuristic).lower() if rec else ""),
                fname,
            ]
        )
    return _write_csv(path, FRONT_FIELDS, rows)


def _sweep_inputs(args, default_out: str):
    """Settings, scenario, tables and output directory of solve and oracle."""
    params = _solve_params(args, _load_config(args.config))
    scenario = _read_scenario(args.scenario)
    tables = derive_tables(scenario)
    out_dir = Path(args.out or default_out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return params, scenario, tables, out_dir


def cmd_solve(args) -> int:
    started = time.time()
    params, scenario, tables, out_dir = _sweep_inputs(args, "solve-out")

    result = pareto.solve(scenario, tables, params=params)
    theta = resolve_theta(scenario, params.theta)

    sol_dir = out_dir / "solutions"
    sol_dir.mkdir(exist_ok=True)
    outputs = []
    solution_files = []
    for n, entry in enumerate(result.front):
        fname = f"solutions/solution_{n:03d}.json"
        path = out_dir / fname
        path.write_text(json.dumps(solution_to_dict(entry.solution, scenario, theta), indent=1, sort_keys=True) + "\n")
        solution_files.append(fname)
        outputs.append(path)

    outputs.append(_write_front_csv(out_dir / "front.csv", result.front, result.bounds, solution_files))
    bounds = [[rec.epsilon, rec.bound, str(rec.heuristic).lower()] for rec in result.bounds]
    outputs.append(_write_csv(out_dir / "bounds.csv", ["epsilon", "bound", "heuristic_bound"], bounds))
    if args.trace:
        header = ["iteration", "round", "epsilon", "relaxed_value", "max_multiplier", "violation_norm"]
        outputs.append(_write_csv(out_dir / "multiplier_trace.csv", header, result.multiplier_trace))

    _write_manifest(
        out_dir,
        "solve",
        {
            "scenario_hash": scenario_hash(scenario),
            "seed": params.search.seed,
            "config": {
                "solve": {k: v for k, v in dataclasses.asdict(params).items() if k != "search"},
                "search": dataclasses.asdict(params.search),
            },
        },
        outputs,
        started,
    )
    print(f"front: {len(result.front)} entries over {len(result.epsilons)} budget iterations -> {out_dir}")
    return EXIT_OK


def cmd_check(args) -> int:
    if args.budget is not None and not math.isfinite(args.budget):  # every comparison with NaN is false
        raise CliError(f"--budget must be finite, got {args.budget}; leave it out to check without a budget")
    scenario = _read_scenario(args.scenario)
    tables = derive_tables(scenario)
    try:
        data = json.loads(Path(args.solution).read_text())
        solution = solution_from_dict(data, scenario)
    except OSError as exc:
        raise CliError(f"cannot read solution file {args.solution}: {exc}")
    except ValueError as exc:  # JSON syntax, text encoding or SolutionFormatError
        raise CliError(f"bad solution file {args.solution}: {exc}")
    violations = check_feasibility(solution, scenario, tables, budget=args.budget)
    if not violations:
        print("feasible: no violations")
        return EXIT_OK
    for v in violations:
        print(f"{v.code} {v.subject}: {v.detail}")
    print(f"{len(violations)} violation(s)")
    return EXIT_VIOLATION


def cmd_oracle(args) -> int:
    started = time.time()
    params, scenario, tables, out_dir = _sweep_inputs(args, "oracle-out")

    exact = oracle_mod.exact_front(scenario, tables, params.theta)
    result = pareto.solve(scenario, tables, params=params)
    heuristic = pareto.front_points(result.front)

    oracle_rows = [["", cost_val, "", "", fc, "", "false", ""] for cost_val, fc in exact]
    oracle_csv = _write_csv(out_dir / "oracle_front.csv", FRONT_FIELDS, oracle_rows)
    heuristic_csv = _write_front_csv(out_dir / "front.csv", result.front, result.bounds, [""] * len(result.front))

    diff_rows = []
    for cost_val, fc in exact:
        best = pareto.best_within(heuristic, cost_val)
        if any(abs(h_cost - cost_val) <= TOLERANCE and abs(h_fc - fc) <= TOLERANCE for h_cost, h_fc in heuristic):
            status = "match"
        elif best is None:
            status = "missed"
        else:
            status = "dominated"
        diff_rows.append([cost_val, fc, status, "" if best is None else best])
    diff_csv = _write_csv(out_dir / "oracle_diff.csv", ["f1", "fc", "status", "heuristic_best_fc"], diff_rows)
    matches = sum(row[2] == "match" for row in diff_rows)

    _write_manifest(
        out_dir,
        "oracle",
        {"scenario_hash": scenario_hash(scenario), "seed": params.search.seed, "source": "oracle"},
        [oracle_csv, heuristic_csv, diff_csv],
        started,
    )
    print(f"oracle front: {len(exact)} points, heuristic matches {matches}/{len(exact)} -> {out_dir}")
    return EXIT_OK


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _read_columns(path: Path, parsers: dict) -> list[tuple]:
    """One tuple per data row of a CSV file: the named columns, each read by
    its parser. A missing column or an unreadable value is a CliError naming
    the file, the row (1 is the first data row) and the column."""
    rows = []
    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            for column in parsers:
                if column not in (reader.fieldnames or ()):
                    raise CliError(f"{path}: no {column!r} column")
            for n, raw in enumerate(reader, start=1):
                row = []
                for column, parse in parsers.items():
                    try:
                        row.append(parse(raw[column]))
                    except (TypeError, ValueError):
                        raise CliError(f"{path} row {n}, column {column!r}: bad value {raw[column]!r}")
                rows.append(tuple(row))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CliError(f"{path}: not a readable CSV file: {exc}")
    return rows


def cmd_report(args) -> int:
    started = time.time()
    out_dir = Path(args.out or ".")
    front_csv = out_dir / "front.csv"
    bounds_csv = out_dir / "bounds.csv"
    if not front_csv.exists():
        raise CliError(f"missing front file: {front_csv}")
    if not bounds_csv.exists():
        raise CliError(f"missing bound file: {bounds_csv}")
    points = _read_columns(front_csv, {"f1": _finite, "fc": _finite})
    bounds = [
        pareto.BoundRecord(*row)
        for row in _read_columns(bounds_csv, {"epsilon": _finite, "bound": _finite, "heuristic_bound": _flag})
    ]
    report = pareto.gap_report(points, bounds)

    gap_header = ["epsilon", "best_fc", "bound", "ratio", "heuristic_bound"]
    gap_rows = [[r.epsilon, r.best_fc, r.bound, r.ratio, str(r.heuristic).lower()] for r in report.rows]
    gap_csv = _write_csv(out_dir / "gap_table.csv", gap_header, gap_rows)
    plot_rows = [["solution", f1, fc] for f1, fc in sorted(points)] + [["bound", r.epsilon, r.bound] for r in bounds]
    plot_csv = _write_csv(out_dir / "plot_data.csv", ["series", "x", "y"], plot_rows)

    _write_manifest(
        out_dir, "report", {"skipped_epsilons": report.skipped}, [gap_csv, plot_csv], started,
        name="report_manifest.json",
    )
    if report.rows:
        flagged = " (heuristic bounds)" if any(r.heuristic for r in report.rows) else ""
        print(f"max ratio best_fc/bound = {report.max_ratio:.4f}{flagged} over {len(report.rows)} budgets")
    else:
        print("no budgets with positive bounds and feasible solutions")
    if report.skipped:
        print(f"skipped {len(report.skipped)} budget(s) without positive bound or feasible entry")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing fills a fresh namespace
    each call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(prog="backhaul-planner", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def run_flags(p, sweep=False):
        """The flags of the commands that take settings: gen, solve, oracle."""
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="JSON file with gen/solve/search overrides")
        p.add_argument("--out", default=None)
        if sweep:  # the solve settings that _solve_params reads from flags
            p.add_argument("--theta", type=float, default=None)
            p.add_argument("--delta-c", dest="delta_c", type=float, default=None)
            p.add_argument("--delta-eps", dest="delta_eps", type=float, default=None)
            p.add_argument("--restrict", default=None, choices=list(pareto.RESTRICTIONS))
            p.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)

    p = sub.add_parser("gen", help="generate a scenario file")
    run_flags(p)
    p.add_argument("--preset", default=None, choices=["paper-fig2"])
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("derive", help="write a scenario's tables to a sidecar for inspection; no command reads it")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", default=None, help="sidecar path (default: <scenario>.tables.json)")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("solve", help="run the budget sweep")
    p.add_argument("scenario", help="scenario JSON file")
    run_flags(p, sweep=True)
    p.add_argument("--trace", action="store_true", help="write the multiplier trace CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="check a solution file against a scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("solution", help="solution JSON file")
    p.add_argument("--budget", type=float, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="exact front for a tiny scenario plus a diff vs the solver")
    p.add_argument("scenario", help="scenario JSON file")
    run_flags(p, sweep=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("report", help="gap table and plot data from solve outputs")
    p.add_argument("--out", default=None, help="directory holding front.csv and bounds.csv")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except oracle_mod.OracleLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ScenarioFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:  # every read names its own errors, so this is a write
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
