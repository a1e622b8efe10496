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
from backhaul_planner.cli import main
from backhaul_planner.scenario import load_scenario, save_scenario
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


class TestDerive:
    def test_writes_sidecar(self, workdir):
        scen = tiny_scenario_file(Path("scen.json"))
        rc = main(["derive", str(scen)])
        assert rc == 0
        sidecar = Path("scen.json.tables.json")
        assert sidecar.exists()
        data = json.loads(sidecar.read_text())
        assert "scenario_hash" in data and data["ban_sbs_limit"]

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
    def test_gap_and_plot_outputs(self, workdir, capsys):
        scen = tiny_scenario_file(Path("scen.json"), seed=95)
        cfg = write_config(Path("cfg.json"))
        main(["solve", str(scen), "--config", cfg, "--out", "out", "--seed", "1"])
        rc = main(["report", "--out", "out"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "max ratio" in printed or "no budgets" in printed
        plot = list(csv.DictReader(Path("out/plot_data.csv").open()))
        assert {r["series"] for r in plot} >= {"solution"}
        assert Path("out/gap_table.csv").exists()

    def test_missing_bounds_is_an_error(self, workdir, capsys):
        Path("empty").mkdir()
        Path("empty/front.csv").write_text("epsilon,f1,f2,f3,fc,bound,heuristic_bound,solution_file\n")
        assert main(["report", "--out", "empty"]) == 2
        assert "bound" in capsys.readouterr().err


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
