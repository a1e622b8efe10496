"""Tests for check.py: a real solve passes, and each planted fault is rejected.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_check.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from collections import Counter

import pytest

import check
from backhaul_planner import cli
from workload import WORKLOADS

MID = WORKLOADS["mid-pipeline"]


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One mid-pipeline instance generated, derived and solved through the CLI."""
    work = tmp_path_factory.mktemp("solved")
    scen = work / "scenario.json"
    (work / "gen.json").write_text(json.dumps({"gen": MID.gen[0]}))
    (work / "solve.json").write_text(json.dumps(MID.config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--config", str(work / "gen.json"), "--seed", "0", "--out", str(scen)]) == 0
        assert cli.main(["derive", str(scen)]) == 0
        assert cli.main(["solve", str(scen), "--config", str(work / "solve.json"), "--out", str(work / "out"),
                         "--seed", "0"]) == 0
    return scen, work / "out"


@pytest.fixture
def planted(solved, tmp_path):
    """A copy of the solve's outputs plus the solution file with the most
    attached SBSs, to plant one fault in."""
    scen, out = solved
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    with (copy / "front.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = max(rows, key=lambda r: len(json.loads((copy / r["solution_file"]).read_text())["parents"]))
    path = copy / row["solution_file"]
    sol = json.loads(path.read_text())
    assert len(sol["parents"]) >= 4, "the instance needs four attached SBSs"
    return check.Instance.load(scen), copy, path, sol


def _codes(inst, out) -> set[str]:
    return {code for code, _ in check.check_run(inst, out, MID.delta_c)}


def _loads(sol: dict) -> Counter:
    load: Counter = Counter()
    for ref in sol["cover"].values():
        role, node = ref.split(":")
        while role == "sbs":
            load[node] += 1
            role, node = sol["parents"][node].split(":")
    return load


def test_real_solve_passes(solved):
    scen, out = solved
    inst = check.Instance.load(scen)
    assert check.check_run(inst, out, MID.delta_c) == []
    assert check.gap_ratio_max(inst, out) >= 1.0


def test_subarea_out_of_range(planted):
    inst, out, path, sol = planted
    subarea, ref = next((s, r) for s, r in sol["cover"].items() if r.startswith("sbs:"))
    site = inst.sites["sbs"][int(ref.split(":")[1])]
    far = max(
        (s for s in range(inst.n_subareas) if str(s) not in sol["cover"]),
        key=lambda s: math.dist(site, inst.centers[s]),
    )
    del sol["cover"][subarea]
    sol["cover"][str(far)] = ref  # same counts, so the objectives still agree
    path.write_text(json.dumps(sol))
    assert "access-range" in _codes(inst, out)


def test_over_limit_chain(planted):
    inst, out, path, sol = planted
    load = _loads(sol)
    p, i = sorted((n for n in sol["parents"] if load[n] > 0), key=int)[:2]
    role, anchor = sol["parents"][p].split(":")
    assert load[p] + load[i] > inst.link_limit[role][int(anchor)][int(p)]
    sol["parents"][i] = f"sbs:{p}"  # p now also carries i's subareas
    path.write_text(json.dumps(sol))
    assert "link-load" in _codes(inst, out)


def test_wrong_fc(planted):
    inst, out, path, sol = planted
    sol["objectives"]["fc"] += 1.0
    path.write_text(json.dumps(sol))
    assert "objective-fc" in _codes(inst, out)


def test_fourth_hop(planted):
    inst, out, path, sol = planted
    a, b, c, d = sorted(sol["parents"], key=int)[:4]
    sol["parents"].update({b: f"sbs:{a}", c: f"sbs:{b}", d: f"sbs:{c}"})
    path.write_text(json.dumps(sol))
    assert "hop-limit" in _codes(inst, out)


def test_bound_above_front(planted):
    inst, out, path, sol = planted
    text = (out / "bounds.csv").read_text().splitlines()
    eps, _, flag = text[1].split(",")
    (out / "bounds.csv").write_text("\n".join([text[0], f"{eps},{inst.fc_empty + 1},{flag}", *text[2:]]) + "\n")
    assert "bound-above-front" in _codes(inst, out)
