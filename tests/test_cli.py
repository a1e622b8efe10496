"""Command-line surface: gen/derive/solve/check/oracle/report."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import backhaul_planner
from backhaul_planner import cli, pareto
from backhaul_planner.cli import main
from backhaul_planner.scenario import derive_tables, load_scenario, load_tables, save_scenario
from backhaul_planner.tabu import SearchParams
from util import tiny_instance

FAST_CONFIG = {
    "solve": {"n_lagrangian": 2},
    "search": {"n_outer": 3, "n_inner": 4, "n_div": 1, "tenure_ban": 1, "tenure_station": 2},
}


GOLDEN_SCENARIO = Path(__file__).parent / "data" / "golden_scenario.json"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(path: Path, config=None) -> str:
    path.write_text(json.dumps(config or FAST_CONFIG))
    return str(path)


def tiny_scenario_file(path: Path, seed=88, **kw) -> Path:
    scenario, _ = tiny_instance(seed, **kw)
    save_scenario(scenario, path)
    return path


class TestGen:
    def test_preset_shape(self, workdir):
        rc = main(["gen", "--preset", "paper-fig2", "--seed", "7", "--out", "scen.json"])
        assert rc == 0
        scenario = load_scenario("scen.json")
        assert (len(scenario.ban_sites), len(scenario.sbs_sites), len(scenario.ma_sites)) == (5, 40, 20)
        assert scenario.n_machines == 2000
        assert scenario.n_subareas == 1600
        manifest = json.loads(Path("scen.json.manifest.json").read_text())
        assert manifest["command"] == "gen" and "scen.json" in manifest["outputs"]

    def test_same_seed_same_bytes(self, workdir):
        main(["gen", "--preset", "paper-fig2", "--seed", "3", "--out", "a.json"])
        main(["gen", "--preset", "paper-fig2", "--seed", "3", "--out", "b.json"])
        assert Path("a.json").read_bytes() == Path("b.json").read_bytes()
        main(["gen", "--preset", "paper-fig2", "--seed", "4", "--out", "c.json"])
        assert Path("a.json").read_bytes() != Path("c.json").read_bytes()

    def test_zero_machines_config(self, workdir):
        cfg = write_config(Path("cfg.json"), {"gen": {"n_machines": 0, "n_ban": 1, "n_sbs": 1, "n_ma": 0}})
        rc = main(["gen", "--config", cfg, "--out", "z.json"])
        assert rc == 0
        assert load_scenario("z.json").n_machines == 0

    def test_bad_config_exits_2(self, workdir):
        cfg = write_config(Path("cfg.json"), {"gen": {"not_a_field": 1}})
        assert main(["gen", "--config", cfg, "--out", "z.json"]) == 2


class TestMalformedConfig:
    """A malformed --config exits 2 naming the field or section, without a traceback."""

    @pytest.mark.parametrize(
        "command, config, field",
        [
            ("gen", {"gen": {"radio": {"access": {"foo": 1}}}}, "'radio.access'"),
            ("gen", {"gen": {"radio": 5}}, "'radio'"),
            ("gen", {"gen": [1]}, "gen config"),
            ("gen", {"gen": {"n_sbs": -1}}, "n_sbs"),
            ("gen", {"gen": {"ban_positions": [[1]]}}, "ban_positions"),
            ("gen", {"gen": {"n_sbs": "x"}}, "'gen.n_sbs'"),
            ("gen", {"gen": {"n_machines": 2.5}}, "'gen.n_machines'"),
            ("gen", {"gen": {"width": -5}}, "'gen.width'"),
            ("solve", {"search": [1, 2]}, "search config"),
            ("solve", {"solve": {"theta": "x"}}, "'solve.theta'"),
            ("solve", {"solve": {"theta": -1}}, "'solve.theta'"),
            ("solve", {"solve": {"delta_eps": "x"}}, "'solve.delta_eps'"),
            ("solve", {"solve": {"n_lagrangian": 1.5}}, "'solve.n_lagrangian'"),
            ("solve", {"solve": {"max_iterations": "2"}}, "'solve.max_iterations'"),
            ("solve", {"search": {"n_outer": 2.5}}, "'search.n_outer'"),
            ("solve", {"search": {"n_swap": "x"}}, "'search.n_swap'"),
            ("solve", b"\xff\xfe{", "cfg.json"),
        ],
        ids=[
            "link-key", "radio-number", "gen-list", "negative-count", "short-position", "gen-count-text",
            "gen-count-fraction", "gen-width-negative", "search-list",
            "theta-text", "theta-negative", "delta-eps-text", "n-lagrangian-fraction", "max-iterations-text",
            "n-outer-fraction", "n-swap-text", "non-utf8",
        ],
    )
    def test_exits_2_naming_it(self, workdir, capsys, command, config, field):
        if isinstance(config, bytes):
            Path("cfg.json").write_bytes(config)
            cfg = "cfg.json"
        else:
            cfg = write_config(Path("cfg.json"), config)
        if command == "gen":
            argv = ["gen", "--out", "z.json"]
        else:
            argv = ["solve", str(tiny_scenario_file(Path("scen.json")))]
        assert main([*argv, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err


class TestDerive:
    def test_writes_sidecar(self, workdir):
        scen = tiny_scenario_file(Path("scen.json"))
        rc = main(["derive", str(scen)])
        assert rc == 0
        sidecar = Path("scen.json.tables.json")
        assert sidecar.exists()
        data = json.loads(sidecar.read_text())
        assert "scenario_hash" in data and data["ban_sbs_limit"]

    def test_a_tiny_per_user_rate_derives_promptly(self, workdir):
        """The Poisson tail ends where its terms underflow, also when the
        capacity holds more users than a float can count."""
        data = json.loads(tiny_scenario_file(Path("scen.json")).read_text())
        default = derive_tables(load_scenario("scen.json"))
        data["radio"]["per_user_rate_bps"] = 1e-300
        Path("slow.json").write_text(json.dumps(data))
        assert main(["derive", "slow.json"]) == 0
        tables = derive_tables(load_scenario("slow.json"))
        for slow, fast in ((tables.ban_sbs_limit, default.ban_sbs_limit), (tables.sbs_sbs_limit, default.sbs_sbs_limit)):
            assert all(a >= b for a_row, b_row in zip(slow, fast) for a, b in zip(a_row, b_row))

    def test_a_grid_above_the_cap_exits_2(self, workdir, capsys):
        data = json.loads(tiny_scenario_file(Path("scen.json")).read_text())
        data["subarea_side"] = 1e-300
        Path("fine.json").write_text(json.dumps(data))
        assert main(["derive", "fine.json"]) == 2
        err = capsys.readouterr().err
        assert "subarea_side" in err and "Traceback" not in err

    def test_malformed_scenario_names_field(self, workdir, capsys):
        data = json.loads(tiny_scenario_file(Path("scen.json")).read_text())
        del data["n_b"]
        Path("bad.json").write_text(json.dumps(data))
        assert main(["derive", "bad.json"]) == 2
        assert "n_b" in capsys.readouterr().err


def scenario_fields(node, path="", keys=()):
    """(path, keys) of every field of a scenario document, containers too;
    paths are spelled as the error messages spell them."""
    if keys:
        yield path, keys
    if isinstance(node, dict):
        for k, v in node.items():
            yield from scenario_fields(v, f"{path}.{k}" if path else k, keys + (k,))
    elif isinstance(node, list):
        for n, v in enumerate(node):
            yield from scenario_fields(v, f"{path}[{n}]", keys + (n,))


GOLDEN_FIELDS = sorted(scenario_fields(json.loads(GOLDEN_SCENARIO.read_text())))
# radio levels in dB(m) may be any finite number, negative ones included
SIGNED_FIELDS = {
    "radio.ban_tx_dbm", "radio.sbs_tx_dbm", "radio.machine_tx_dbm", "radio.noise_dbm", "radio.snr_threshold_db"
}
INTEGER_FIELDS = {"version", "n_b", "n_relays", "radio.machine_limit"}


@st.composite
def corrupted_field(draw):
    path, keys = draw(st.sampled_from(GOLDEN_FIELDS))
    bad = [math.nan, math.inf, -math.inf, "x", None, True, [1.0], {"v": 1}]
    if path not in SIGNED_FIELDS:
        bad.append(-1.0)
    if path in INTEGER_FIELDS:
        bad.append(2.5)
    return path, keys, draw(st.sampled_from(bad))


def write_corrupted(directory: Path, keys, bad) -> Path:
    data = json.loads(GOLDEN_SCENARIO.read_text())
    node = data
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = bad
    path = directory / "bad.json"
    path.write_text(json.dumps(data))
    return path


class TestMalformedScenario:
    """A malformed field exits 2 and is named; it never gives a traceback."""

    @given(corrupted_field())
    def test_corrupted_field_exits_2_naming_it(self, case):
        path, keys, bad = case
        with tempfile.TemporaryDirectory() as tmp:
            scen = write_corrupted(Path(tmp), keys, bad)
            for argv in (["derive", str(scen)], ["solve", str(scen), "--out", str(Path(tmp) / "out")]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = main(argv)
                assert rc == 2, (argv[0], path, bad)
                assert path in err.getvalue() and "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("unreadable", ["directory", "non-utf8"])
    @pytest.mark.parametrize("command", ["derive", "solve", "check", "oracle"])
    def test_unreadable_file_exits_2_naming_it(self, workdir, capsys, command, unreadable):
        scen = Path("scen")
        if unreadable == "directory":
            scen.mkdir()
        else:
            scen.write_bytes(b"\xff\xfe{")
        argv = [command, str(scen)] + (["solution.json"] if command == "check" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(scen) in err and "Traceback" not in err


class TestSolve:
    def run_solve(self, scen, out="out", extra=()):
        cfg = write_config(Path("cfg.json"))
        rc = main(["solve", str(scen), "--config", cfg, "--out", out, "--seed", "1", *extra])
        assert rc == 0
        return Path(out)

    def test_outputs_and_feasibility(self, workdir):
        scen = tiny_scenario_file(Path("scen.json"))
        out = self.run_solve(scen)
        front = list(csv.DictReader((out / "front.csv").open()))
        assert front, "front should not be empty"
        assert list(front[0]) == [
            "epsilon", "f1", "f2", "f3", "fc", "bound", "heuristic_bound", "solution_file"
        ]
        for row in front:
            if not row["solution_file"]:
                continue
            rc = main(["check", str(scen), str(out / row["solution_file"])])
            assert rc == 0
        assert (out / "bounds.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) >= {"front.csv", "bounds.csv"}

    def test_rerun_reproduces_output_hashes(self, workdir):
        scen = tiny_scenario_file(Path("scen.json"))
        a = self.run_solve(scen, out="out_a")
        b = self.run_solve(scen, out="out_b")
        ma = json.loads((a / "manifest.json").read_text())["outputs"]
        mb = json.loads((b / "manifest.json").read_text())["outputs"]
        assert ma == mb

    def test_theta_zero_makes_fc_equal_f2(self, workdir):
        scen = tiny_scenario_file(Path("scen.json"), seed=90, n_ma=2, n_machines=8)
        out = self.run_solve(scen, extra=("--theta", "0"))
        for row in csv.DictReader((out / "front.csv").open()):
            assert float(row["fc"]) == float(row["f2"])

    def test_trace_flag_writes_multiplier_trace(self, workdir):
        scen = tiny_scenario_file(Path("scen.json"))
        out = self.run_solve(scen, extra=("--trace",))
        rows = list(csv.DictReader((out / "multiplier_trace.csv").open()))
        assert rows and {"iteration", "round", "relaxed_value"} <= set(rows[0])

    def test_restrict_flag_accepted(self, workdir):
        scen = tiny_scenario_file(Path("scen.json"))
        out = self.run_solve(scen, out="out_fiber", extra=("--restrict", "fiber-only"))
        front = list(csv.DictReader((out / "front.csv").open()))
        assert front

    def test_sweep_knob_flags_accepted(self, workdir):
        scen = tiny_scenario_file(Path("scen.json"))
        out = self.run_solve(
            scen,
            out="out_knobs",
            extra=("--delta-c", "2", "--delta-eps", "5", "--max-iterations", "2"),
        )
        bounds = list(csv.DictReader((out / "bounds.csv").open()))
        assert 0 < len(bounds) <= 2
        eps = [float(r["epsilon"]) for r in bounds]
        if len(eps) == 2:
            assert eps[0] - eps[1] >= 2.0  # delta_c respected


def rewrite_sidecar(change):
    """Derive the sidecar next to ``scen``, then apply ``change`` to its JSON object."""
    def apply(scen: Path, sidecar: Path):
        assert main(["derive", str(scen)]) == 0
        data = json.loads(sidecar.read_text())
        change(data)
        sidecar.write_text(json.dumps(data))
    return apply


# What may lie where derive writes the sidecar, <scenario>.tables.json
SIDECAR_STATES = {
    "none": lambda scen, sidecar: None,
    "stale-hash": rewrite_sidecar(lambda d: d.update(scenario_hash="0" * 64)),
    "corrupted-row": rewrite_sidecar(lambda d: d["ban_sbs_limit"][0].pop()),
    "garbage": lambda scen, sidecar: sidecar.write_bytes(b"\xff\xfe{"),
    "directory": lambda scen, sidecar: sidecar.mkdir(),
}


class TestSidecarNotRead:
    """solve, oracle and check derive the tables themselves: whatever lies in
    the sidecar's place changes no output and prints nothing on stderr."""

    @pytest.mark.parametrize("state", SIDECAR_STATES)
    def test_outputs_as_without_sidecar(self, workdir, capsys, state):
        scen = Path("scen.json")
        scen.write_bytes(GOLDEN_SCENARIO.read_bytes())
        cfg = write_config(Path("cfg.json"))

        def run(out):
            for command in ("solve", "oracle"):
                assert main([command, str(scen), "--config", cfg, "--out", f"{out}-{command}", "--seed", "1"]) == 0
            solutions = sorted(Path(f"{out}-solve", "solutions").iterdir())
            return [json.loads(Path(f"{out}-{command}", "manifest.json").read_text())["outputs"]
                    for command in ("solve", "oracle")], [main(["check", str(scen), str(path)]) for path in solutions]

        expected = run("fresh")
        SIDECAR_STATES[state](scen, Path("scen.json.tables.json"))
        capsys.readouterr()
        assert run("again") == expected
        assert capsys.readouterr().err == ""


# A sidecar whose scenario hash matches but whose content does not fit the
# golden scenario (2/2/1 sites, 25 subareas, 5 machines)
SIDECAR_FAULTS = {
    "short-limit-row": lambda d: d["ban_sbs_limit"][0].pop(),
    "reach-out-of-range": lambda d: d["sbs_reach"][0].append(999),
    "text-limit": lambda d: d["sbs_sbs_limit"][0].__setitem__(1, "x"),
    "text-radius": lambda d: d.update(sbs_radius_m="20.0"),
    "null-machine-limit": lambda d: d.update(machine_limit=None),
    "fractional-limit": lambda d: d["ban_sbs_limit"][0].__setitem__(0, 2.5),
    "version": lambda d: d.update(version=2),
    "missing-field": lambda d: d.pop("ma_reach"),
}


class TestMalformedSidecar:
    """load_tables reports a malformed sidecar naming its path; solve and
    check derive the tables again and give the outputs of a run without it."""

    @pytest.mark.parametrize("corrupt", SIDECAR_FAULTS.values(), ids=SIDECAR_FAULTS.keys())
    def test_reported_and_derived_again(self, workdir, capsys, corrupt):
        scen = Path("scen.json")
        scen.write_bytes(GOLDEN_SCENARIO.read_bytes())
        cfg = write_config(Path("cfg.json"))

        def run(out):
            assert main(["solve", str(scen), "--config", cfg, "--out", out, "--seed", "1"]) == 0
            solutions = sorted(Path(out, "solutions").iterdir())
            return json.loads(Path(out, "manifest.json").read_text())["outputs"], [
                main(["check", str(scen), str(path)]) for path in solutions
            ]

        fresh = run("fresh")
        sidecar = Path("scen.json.tables.json")
        rewrite_sidecar(corrupt)(scen, sidecar)
        with pytest.raises(ValueError) as excinfo:
            load_tables(sidecar, load_scenario(scen))
        assert str(sidecar) in str(excinfo.value)
        capsys.readouterr()
        assert run("again") == fresh
        assert capsys.readouterr().err == ""


class TestCheck:
    def solved(self, workdir):
        scen = tiny_scenario_file(Path("scen.json"), seed=91, n_ban=2, n_sbs=3)
        cfg = write_config(Path("cfg.json"))
        main(["solve", str(scen), "--config", cfg, "--out", "out", "--seed", "1"])
        front = list(csv.DictReader(Path("out/front.csv").open()))
        rows = [r for r in front if r["solution_file"] and float(r["f1"]) > 0]
        chained = None
        for row in rows:
            data = json.loads((Path("out") / row["solution_file"]).read_text())
            if data["parents"]:
                chained = data
                break
        return scen, chained

    def test_corrupted_parent_flagged(self, workdir, capsys):
        scen, data = self.solved(workdir)
        if data is None:
            pytest.skip("no chained solution produced by this fixture")
        sbs = next(iter(data["parents"]))
        del data["parents"][sbs]
        Path("broken.json").write_text(json.dumps(data))
        assert main(["check", str(scen), "broken.json"]) == 1
        assert "sbs-backhaul" in capsys.readouterr().out

    def test_budget_flag(self, workdir, capsys):
        scen, data = self.solved(workdir)
        front = list(csv.DictReader(Path("out/front.csv").open()))
        row = max(front, key=lambda r: float(r["f1"]))
        if float(row["f1"]) == 0:
            pytest.skip("front only has the empty deployment")
        sol = Path("out") / row["solution_file"]
        assert main(["check", str(scen), str(sol), "--budget", "0.5"]) == 1
        assert "budget" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
    def test_non_finite_budget_exits_2_naming_it(self, workdir, capsys, budget):
        scen, _ = self.solved(workdir)
        solution = next(r["solution_file"] for r in csv.DictReader(Path("out/front.csv").open()) if r["solution_file"])
        capsys.readouterr()
        assert main(["check", str(scen), str(Path("out") / solution), f"--budget={budget}"]) == 2
        err = capsys.readouterr().err
        assert "--budget" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("deployment", "bans"), [0.5], "deployment.bans[0]"),
            (("deployment", "bans"), ["a"], "deployment.bans[0]"),
            (("deployment", "bans"), [-1], "deployment.bans[0]"),
            (("deployment",), [[0], [1], []], "deployment"),
            (("machines",), None, "machines"),
            (("parents", "1"), "xyz:1", "parents.1"),
            (None, None, "broken.json"),
        ],
        ids=[
            "index-half", "index-text", "index-negative", "deployment-list", "machines-null", "parent-kind",
            "directory",
        ],
    )
    def test_malformed_solution_exits_2_naming_field(self, workdir, capsys, path, value, field):
        scen, data = self.solved(workdir)
        assert "1" in data["parents"]
        if path is None:  # a directory in the solution file's place
            Path("broken.json").mkdir()
        else:
            *keys, last = path
            target = data
            for key in keys:
                target = target[key]
            target[last] = value
            Path("broken.json").write_text(json.dumps(data))
        assert main(["check", str(scen), "broken.json"]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err


class TestOracleCommand:
    def test_diff_reports_matches(self, workdir):
        scen = tiny_scenario_file(Path("scen.json"), seed=92, n_ban=2, n_sbs=2, n_ma=1, n_machines=5)
        cfg = write_config(Path("cfg.json"), {
            "solve": {"n_lagrangian": 3},
            "search": {"n_outer": 6, "n_inner": 8, "n_div": 1, "tenure_ban": 2, "tenure_station": 3},
        })
        rc = main(["oracle", str(scen), "--config", cfg, "--out", "odir", "--seed", "2"])
        assert rc == 0
        rows = list(csv.DictReader(Path("odir/oracle_diff.csv").open()))
        assert rows
        assert all(r["status"] in ("match", "dominated", "missed") for r in rows)
        assert Path("odir/oracle_front.csv").exists()
        assert Path("odir/front.csv").exists()

    def test_empty_instance_single_point_match(self, workdir):
        scen = tiny_scenario_file(Path("scen.json"), seed=93, n_ban=0, n_sbs=1, n_ma=0, n_machines=0)
        cfg = write_config(Path("cfg.json"))
        rc = main(["oracle", str(scen), "--config", cfg, "--out", "odir", "--seed", "2"])
        assert rc == 0
        rows = list(csv.DictReader(Path("odir/oracle_diff.csv").open()))
        assert len(rows) == 1 and rows[0]["status"] == "match"

    def test_oversized_instance_refused(self, workdir, capsys):
        scen = tiny_scenario_file(Path("scen.json"), seed=94, n_sbs=3)
        data = json.loads(scen.read_text())
        data["sbs_sites"] = data["sbs_sites"] * 4  # 12 station sites
        Path("big.json").write_text(json.dumps(data))
        cfg = write_config(Path("cfg.json"))
        assert main(["oracle", "big.json", "--config", cfg, "--out", "odir"]) == 1
        assert "refused" in capsys.readouterr().err


class TestReport:
    def solved(self):
        scen = tiny_scenario_file(Path("scen.json"), seed=95)
        cfg = write_config(Path("cfg.json"))
        main(["solve", str(scen), "--config", cfg, "--out", "out", "--seed", "1"])
        return scen

    def test_gap_and_plot_outputs(self, workdir, capsys):
        scen = self.solved()
        rc = main(["report", "--out", "out"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "max ratio" in printed or "no budgets" in printed
        plot = list(csv.DictReader(Path("out/plot_data.csv").open()))
        assert {r["series"] for r in plot} >= {"solution"}

        # the gap table is the one gap_report computes from the same solve
        scenario = load_scenario(scen)
        params = pareto.SolveParams(
            n_lagrangian=FAST_CONFIG["solve"]["n_lagrangian"], search=SearchParams(**FAST_CONFIG["search"], seed=1)
        )
        result = pareto.solve(scenario, derive_tables(scenario), params=params)
        expected = pareto.gap_report(pareto.front_points(result.front), result.bounds)
        assert expected.rows
        rows = list(csv.reader(Path("out/gap_table.csv").open()))
        assert rows[0] == ["epsilon", "best_fc", "bound", "ratio", "heuristic_bound"]
        assert rows[1:] == [
            [repr(r.epsilon), repr(r.best_fc), repr(r.bound), repr(r.ratio), str(r.heuristic).lower()]
            for r in expected.rows
        ]

    def test_missing_bounds_is_an_error(self, workdir, capsys):
        Path("empty").mkdir()
        Path("empty/front.csv").write_text("epsilon,f1,f2,f3,fc,bound,heuristic_bound,solution_file\n")
        assert main(["report", "--out", "empty"]) == 2
        assert "bound" in capsys.readouterr().err

    def test_unreadable_front_exits_2_naming_it(self, workdir, capsys):
        Path("out/front.csv").mkdir(parents=True)
        Path("out/bounds.csv").write_text("epsilon,bound,heuristic_bound\n")
        assert main(["report", "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert "out/front.csv: not a readable CSV file" in err and "Traceback" not in err

    def test_non_numeric_cost_exits_2_naming_it(self, workdir, capsys):
        self.solved()
        front = Path("out/front.csv")
        rows = list(csv.reader(front.open()))
        rows[2][rows[0].index("f1")] = "abc"
        with front.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["report", "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert "front.csv row 2, column 'f1'" in err and "Traceback" not in err

    def test_bounds_without_bound_column_exits_2_naming_it(self, workdir, capsys):
        self.solved()
        bounds = Path("out/bounds.csv")
        rows = list(csv.DictReader(bounds.open()))
        with bounds.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, ["epsilon", "heuristic_bound"], extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        assert main(["report", "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert "bounds.csv: no 'bound' column" in err and "Traceback" not in err


def _unwritable(command: str) -> tuple[list[str], str]:
    """Arguments that point ``command`` at an output it cannot write, and
    the path its error should name."""
    scen, cfg = str(tiny_scenario_file(Path("scen.json"))), write_config(Path("cfg.json"))
    if command == "report":
        assert main(["solve", scen, "--config", cfg, "--out", "out"]) == 0
        Path("out/gap_table.csv").mkdir()
        return ["report", "--out", "out"], "out/gap_table.csv"
    if command == "derive":
        Path("taken").mkdir()
        return ["derive", scen, "--out", "taken"], "taken"
    Path("taken").write_text("")
    if command == "gen":
        small = write_config(Path("gen.json"), {"gen": {"n_machines": 0, "n_ban": 1, "n_sbs": 1, "n_ma": 0}})
        return ["gen", "--config", small, "--out", "taken/x.json"], "taken"
    return [command, scen, "--config", cfg, "--out", "taken"], "taken"


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["gen", "derive", "solve", "oracle", "report"])
    def test_exits_2_naming_the_path(self, workdir, capsys, command):
        argv, named = _unwritable(command)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {named}: ") and "Traceback" not in err


class TestParser:
    def test_calls_in_one_process_share_no_parsed_state(self, workdir, monkeypatch):
        """``main`` reuses one parser; a flag given to one call reaches no
        later call, whatever its subcommand."""
        parser = cli._build_parser()
        parsed = []
        parse = parser.parse_args

        def spy(argv):
            args = parse(argv)
            parsed.append(dict(vars(args)))
            return args

        monkeypatch.setattr(parser, "parse_args", spy)
        scen = tiny_scenario_file(Path("scen.json"), seed=91, n_ban=2, n_sbs=3)
        cfg = write_config(Path("cfg.json"))
        flags = ["--theta", "0", "--restrict", "single-hop", "--delta-c", "2", "--trace", "--seed", "3"]
        assert main(["solve", str(scen), "--config", cfg, "--out", "a", *flags]) == 0
        assert main(["report", "--out", "a"]) == 0
        assert main(["solve", str(scen), "--config", cfg, "--out", "b"]) == 0
        front = list(csv.DictReader(Path("b/front.csv").open()))
        sol = "b/" + max(front, key=lambda r: float(r["f1"]))["solution_file"]
        assert main(["check", str(scen), sol, "--budget", "0"]) == 1
        assert main(["check", str(scen), sol]) == 0
        assert main(["derive", str(scen)]) == 0

        assert cli._build_parser() is parser
        solve_a, report, solve_b, check_budget, check, derive = parsed
        assert (solve_a["theta"], solve_a["restrict"], solve_a["trace"]) == (0.0, "single-hop", True)
        assert (solve_b["theta"], solve_b["restrict"], solve_b["delta_c"], solve_b["seed"]) == (None, None, None, None)
        assert solve_b["trace"] is False and solve_b["out"] == "b"
        assert set(report) == {"command", "func", "out"}
        assert set(check) == {"command", "func", "scenario", "solution", "budget"}
        assert set(derive) == {"command", "func", "scenario", "out"}
        assert check_budget["budget"] == 0.0 and check["budget"] is None
        manifest = json.loads(Path("b/manifest.json").read_text())["config"]["solve"]
        assert (manifest["theta"], manifest["restrict"], manifest["delta_c"]) == (None, "none", 1.0)
        assert not Path("b/multiplier_trace.csv").exists()


    @pytest.mark.parametrize("argv", [
        ["derive", "s.json", "--seed", "1"],
        ["derive", "s.json", "--config", "c.json"],
        ["check", "s.json", "sol.json", "--seed", "1"],
        ["check", "s.json", "sol.json", "--config", "c.json"],
        ["check", "s.json", "sol.json", "--out", "o"],
    ])
    def test_flags_a_command_never_reads_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGoldenFront:
    def test_front_csv_matches_committed_golden(self, workdir):
        # the golden was generated with this exact configuration and verified
        # against the exhaustive front at generation time
        data_dir = Path(__file__).parent / "data"
        cfg = write_config(Path("cfg.json"), {
            "solve": {"n_lagrangian": 3},
            "search": {"n_outer": 6, "n_inner": 8, "n_div": 1, "tenure_ban": 2, "tenure_station": 3},
        })
        rc = main([
            "solve", str(data_dir / "golden_scenario.json"),
            "--config", cfg, "--out", "gout", "--seed", "5",
        ])
        assert rc == 0
        assert Path("gout/front.csv").read_text() == (data_dir / "golden_front.csv").read_text()


def run_module(*argv) -> subprocess.CompletedProcess:
    """Run ``python -m backhaul_planner`` in a child process."""
    # workdir chdirs away from the repo root, so a relative PYTHONPATH
    # (e.g. `src`) inherited by the child would no longer resolve; point
    # it at the directory that holds the package this process imported.
    package_root = str(Path(backhaul_planner.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "backhaul_planner", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


class TestEntryPoint:
    def test_module_invocation(self, workdir):
        proc = run_module("--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()

    def test_malformed_scenario_exit_code(self, workdir):
        scen = write_corrupted(workdir, ("ban_sites", 0, "cost"), math.nan)
        proc = run_module("derive", str(scen))
        assert proc.returncode == 2, proc.stderr
        assert "ban_sites[0].cost" in proc.stderr and "Traceback" not in proc.stderr
