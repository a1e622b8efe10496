"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS line with the measured numbers.

Budget-sweep traces from every solve run here are recorded and validated at
the end (strict decrease, iteration-count bound).
"""

import csv
import dataclasses
import json
import math
import random
import time
from pathlib import Path

import numpy as np

import conftest

from backhaul_planner import (
    RadioConfig,
    SearchParams,
    derive_tables,
    exact_front,
    exact_relaxed_optimum,
    generate_scenario,
    objectives,
    preset_gen_params,
    relaxed_objective,
    solve,
    zero_multipliers,
)
from backhaul_planner.cli import main
from backhaul_planner.lagrangian import (
    apply_move,
    delta_attach_ban,
    delta_insert_after,
    delta_insert_before,
)
from backhaul_planner.pareto import SolveParams, best_within, front_points, gap_report
from backhaul_planner.scenario import access_link, coverage_radius, poisson_demand_exceeds, save_scenario, subarea_capacity_limit
from util import (
    mid_gen_params,
    poisson_tail_oracle,
    random_multipliers,
    random_path_state,
    random_solution,
    state_solution,
    tiny_instance,
)

THETA = 0.5

# (label, epsilon trace, delta_c, epsilon_0, cheapest anchor cost)
RECORDED_SWEEPS: list[tuple] = []


def record_sweep(label: str, epsilons, delta_c: float, min_ban_cost: float) -> None:
    if epsilons:
        RECORDED_SWEEPS.append((label, list(epsilons), delta_c, epsilons[0], min_ban_cost))


def note(line: str) -> None:
    # one verdict line per criterion: printed here and echoed by the
    # conftest terminal-summary hook so it survives output capture
    message = f"PASS {line}"
    print(message)
    conftest.CRITERION_NOTES.append(message)


# criterion 1 -----------------------------------------------------------------

MID_CLI_CONFIG = {
    "solve": {"delta_c": 4.0, "n_lagrangian": 1},
    "search": {"n_outer": 1, "n_inner": 2, "n_div": 1, "n_swap": 20, "tenure_ban": 0, "tenure_station": 1},
}


def test_criterion_1_feasibility_invariance(tmp_path):
    """50 seeded solves of a 200 m instance: every emitted front entry passes
    the checker with zero violations (tolerance: zero failures, < 5 min)."""
    started = time.time()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(MID_CLI_CONFIG))
    failures = 0
    entries = 0
    for seed in range(50):
        scenario = generate_scenario(mid_gen_params(seed), seed)
        scen_path = tmp_path / f"mid_{seed}.json"
        save_scenario(scenario, scen_path)
        assert main(["derive", str(scen_path)]) == 0
        out = tmp_path / f"out_{seed}"
        assert main(["solve", str(scen_path), "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
        for row in csv.DictReader((out / "front.csv").open()):
            if not row["solution_file"]:
                continue
            entries += 1
            if main(["check", str(scen_path), str(out / row["solution_file"])]) != 0:
                failures += 1
        eps = [float(r["epsilon"]) for r in csv.DictReader((out / "bounds.csv").open())]
        record_sweep(f"criterion1-seed{seed}", eps, 4.0, min(s.cost for s in scenario.ban_sites))
    elapsed = time.time() - started
    assert failures == 0
    assert elapsed < 300, f"criterion 1 took {elapsed:.0f}s (budget 300s)"
    note(f"criterion 1: {entries} front entries over 50 solves, 0 violations, {elapsed:.0f}s")


# criterion 2 -----------------------------------------------------------------


def test_criterion_2_oracle_front_agreement():
    """30 tiny instances at generous budgets: exact front equality in >= 80%
    of instances; no heuristic entry dominated by another (100%); < 10 min."""
    started = time.time()
    params = SolveParams(
        n_lagrangian=10,
        search=SearchParams(n_outer=50, n_inner=50, n_div=2, tenure_ban=7, tenure_station=10, seed=0),
    )
    matches = 0
    for seed in range(30):
        scenario, tables = tiny_instance(2000 + seed)
        result = solve(scenario, tables, params=params)
        record_sweep(f"criterion2-seed{seed}", result.epsilons, params.delta_c,
                     min(s.cost for s in scenario.ban_sites))
        points = [(e.objectives.cost, e.objectives.weighted_uncovered) for e in result.front]
        for a in points:
            for b in points:
                if a is not b:
                    assert not (a[0] <= b[0] and a[1] <= b[1] and a != b), "front self-dominated"
        if points == exact_front(scenario, tables, THETA):
            matches += 1
    elapsed = time.time() - started
    assert matches >= 24, f"only {matches}/30 instances matched the oracle front"
    assert elapsed < 600, f"criterion 2 took {elapsed:.0f}s (budget 600s)"
    note(f"criterion 2: {matches}/30 oracle-front matches, no self-dominated entries, {elapsed:.0f}s")


# criterion 3 -----------------------------------------------------------------


def test_criterion_3_weak_duality():
    """20 tiny instances x 100 multiplier draws: the exact relaxed optimum
    never exceeds the exact optimum (zero exceptions)."""
    rng = random.Random(3)
    checks = 0
    for seed in range(20):
        scenario, tables = tiny_instance(3100 + seed)
        front = exact_front(scenario, tables, THETA)
        budget = scenario.total_cost() * rng.uniform(0.3, 1.0)
        exact_best = best_within(front, budget)
        for _ in range(100):
            lam = random_multipliers(rng, scenario)
            bound = exact_relaxed_optimum(scenario, tables, lam, budget, THETA)
            assert bound <= exact_best + 1e-9, (seed, lam, bound, exact_best)
            checks += 1
    assert checks == 2000
    note("criterion 3: 2000/2000 weak-duality checks hold")


# criterion 4 -----------------------------------------------------------------


def test_criterion_4_delta_consistency():
    """10^4 randomized attach/insert moves: the incremental value change
    equals a full recomputation within 1e-9."""
    rng = random.Random(4)
    checked = 0
    worst = 0.0
    while checked < 10_000:
        seed = rng.randint(0, 10**6)
        scenario, tables = tiny_instance(seed, n_sbs=rng.randint(2, 4))
        lam = random_multipliers(rng, scenario, rng.choice(["zero", "small", "mixed"]))
        ws, dep, state, unattached = random_path_state(rng, scenario, tables, lam)
        rng.shuffle(unattached)
        for i in unattached[:4]:
            avail = state.uncovered_in_reach(i)
            moves = []
            for k in dep.open_bans():
                mv = delta_attach_ban(state, i, k, avail)
                if mv:
                    moves.append(mv)
            for p in sorted(state.parent):
                for maker in (delta_insert_before, delta_insert_after):
                    mv = maker(state, i, p, avail)
                    if mv:
                        moves.append(mv)
            if not moves:
                continue
            move = rng.choice(moves)
            before = relaxed_objective(state_solution(dep, state), lam, THETA, scenario, tables)
            apply_move(state, move)
            after = relaxed_objective(state_solution(dep, state), lam, THETA, scenario, tables)
            err = abs((after - before) - move.delta)
            worst = max(worst, err)
            assert err <= 1e-9, (seed, move, err)
            checked += 1
    note(f"criterion 4: 10000 move deltas consistent, worst error {worst:.2e}")


# criterion 5 -----------------------------------------------------------------


def test_criterion_5_zero_multiplier_identity():
    """1000 random structurally-valid solutions: the relaxed objective at
    zero multipliers equals the weighted uncoverage exactly."""
    rng = random.Random(5)
    checked = 0
    while checked < 1000:
        scenario, tables = tiny_instance(4000 + checked % 200)
        sol = random_solution(rng, scenario, tables)
        value = relaxed_objective(sol, zero_multipliers(scenario), THETA, scenario, tables)
        assert value == objectives(sol, scenario, THETA).weighted_uncovered
        checked += 1
    note("criterion 5: 1000/1000 zero-multiplier identities exact")


# criterion 6 -----------------------------------------------------------------

PAPER_PARAMS = SolveParams(
    delta_c=1.0,
    n_lagrangian=3,
    search=SearchParams(n_outer=2, n_inner=3, n_div=2, n_swap=80, tenure_ban=1, tenure_station=2, seed=0),
)


def test_criterion_6_paper_scale_gap():
    """Full-preset sweep (400 m, 5/40/20 sites, 2000 machines): the max ratio
    of best coverage value to the recorded bound stays <= 2.2 over all
    budgets with positive bounds, within a 30-minute budget."""
    started = time.time()
    scenario = generate_scenario(preset_gen_params("paper-fig2"), 0)
    tables = derive_tables(scenario)
    result = solve(scenario, tables, params=PAPER_PARAMS)
    elapsed = time.time() - started
    record_sweep("criterion6", result.epsilons, PAPER_PARAMS.delta_c,
                 min(s.cost for s in scenario.ban_sites))
    report = gap_report(front_points(result.front), result.bounds)
    assert report.rows, "no budgets with positive bounds"
    assert report.max_ratio is not None and report.max_ratio <= 2.2, f"max ratio {report.max_ratio}"
    assert elapsed < 1800, f"criterion 6 took {elapsed:.0f}s (budget 1800s)"
    note(
        f"criterion 6: max ratio {report.max_ratio:.3f} over {len(report.rows)} budgets, "
        f"front {len(result.front)}, {elapsed:.0f}s"
    )


# criterion 7 -----------------------------------------------------------------

COMPARE_PARAMS = SolveParams(
    delta_c=2.0,
    n_lagrangian=2,
    max_iterations=1,  # best-coverage point only: one sweep at the full budget
    search=SearchParams(n_outer=1, n_inner=2, n_div=2, n_swap=40, tenure_ban=0, tenure_station=1, seed=0),
)


def test_criterion_7_multihop_benefit():
    """Across 10 preset seeds at matched solver budgets, two-relay backhaul
    is at least as good as anchor-only and single-hop in >= 90% of seeds."""
    started = time.time()
    wins = 0
    for seed in range(10):
        scenario = generate_scenario(preset_gen_params("paper-fig2"), seed)
        tables = derive_tables(scenario)
        best = {}
        for mode in ("none", "fiber-only", "single-hop"):
            result = solve(scenario, tables, params=dataclasses.replace(COMPARE_PARAMS, restrict=mode))
            best[mode] = min(e.objectives.weighted_uncovered for e in result.front)
            record_sweep(
                f"criterion7-seed{seed}-{mode}", result.epsilons, COMPARE_PARAMS.delta_c,
                min(s.cost for s in scenario.ban_sites),
            )
        if best["none"] <= best["fiber-only"] + 1e-9 and best["none"] <= best["single-hop"] + 1e-9:
            wins += 1
    elapsed = time.time() - started
    assert wins >= 9, f"multi-hop beaten in {10 - wins}/10 seeds"
    note(f"criterion 7: multi-hop at least as good in {wins}/10 seeds, {elapsed:.0f}s")


# criterion 8 -----------------------------------------------------------------


def test_criterion_8_budget_sweep_monotonicity():
    """Every recorded sweep is strictly decreasing with at most
    (epsilon_0 - min anchor cost) / delta_c + 1 iterations."""
    if not RECORDED_SWEEPS:
        # running in isolation: produce a few sweeps to validate
        params = SolveParams(
            n_lagrangian=2,
            search=SearchParams(n_outer=3, n_inner=4, n_div=1, tenure_ban=1, tenure_station=2, seed=0),
        )
        for seed in range(3):
            scenario, tables = tiny_instance(8800 + seed)
            result = solve(scenario, tables, params=params)
            record_sweep(f"criterion8-standalone{seed}", result.epsilons, params.delta_c,
                         min(s.cost for s in scenario.ban_sites))
    for label, eps, delta_c, eps0, min_ban in RECORDED_SWEEPS:
        assert all(b < a for a, b in zip(eps, eps[1:])), f"{label}: budgets not strictly decreasing"
        limit = (eps0 - min_ban) / delta_c + 1
        assert len(eps) <= limit + 1e-9, f"{label}: {len(eps)} iterations > bound {limit}"
    note(f"criterion 8: {len(RECORDED_SWEEPS)} sweeps strictly decreasing within the iteration bound")


# criterion 9 -----------------------------------------------------------------


def test_criterion_9_radio_model_properties():
    """Coverage radius monotone in the SNR threshold and the outage target
    (100 grid points); the subarea-limit reference value matches its scan
    oracle; the Poisson tail agrees with Monte Carlo within 3 sigma."""
    radii_snr = []
    for snr in np.linspace(-25.0, 25.0, 100):
        radio = RadioConfig(snr_threshold_db=float(snr))
        radii_snr.append(coverage_radius(radio, access_link(radio, "sbs"), radio.access_outage, 600.0))
    assert all(b <= a + 1e-9 for a, b in zip(radii_snr, radii_snr[1:]))

    base = RadioConfig()
    radii_out = [
        coverage_radius(base, access_link(base, "sbs"), float(p), 600.0)
        for p in np.linspace(0.01, 0.6, 100)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(radii_out, radii_out[1:]))

    # reference point: 0.02 users per subarea, 100 Mbps per user and link
    found = subarea_capacity_limit(base, 100e6, 100.0, 1600)
    n = 0
    while poisson_tail_oracle(0.02 * (n + 1), 1) <= base.backhaul_outage:
        n += 1
    assert found == n == 26

    rng = np.random.default_rng(99)
    mean, cap, rate = 0.52, 100e6, 100e6
    draws = rng.poisson(mean, size=1_000_000)
    mc = float(np.mean(draws * rate > cap))
    exact = poisson_demand_exceeds(mean, cap, rate)
    sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / draws.size)
    assert abs(mc - exact) <= 3 * sigma
    note(
        f"criterion 9: radius grids monotone, subarea limit 26 == oracle, "
        f"Poisson tail vs MC |{mc - exact:.2e}| <= 3 sigma"
    )
