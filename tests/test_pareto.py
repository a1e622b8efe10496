"""Budget sweep: repair, front maintenance, bounds, gap report."""

import math
import random
from collections import Counter

import pytest

from backhaul_planner import (
    ConnectionPlan,
    Deployment,
    GenParams,
    ObjectiveVector,
    RadioConfig,
    SearchParams,
    Solution,
    check_feasibility,
    derive_tables,
    exact_front,
    generate_scenario,
    objectives,
    repair_solution,
    routing_flows,
    solve,
)
from backhaul_planner.pareto import (
    BoundRecord,
    FrontEntry,
    GapReport,
    SolveParams,
    best_within,
    gap_report,
    merge_front,
    update_epsilon,
)
from backhaul_planner import pareto
from util import TINY_RADIO, recorded_searches, reference_front_run, tiny_instance

THETA = 0.5
FAST_SEARCH = SearchParams(n_outer=3, n_inner=4, n_div=1, tenure_ban=1, tenure_station=2, seed=2)
FAST = SolveParams(n_lagrangian=2, search=FAST_SEARCH)


def entry(cost, fc, scenario):
    sol = Solution.empty(scenario)
    return FrontEntry(sol, ObjectiveVector(cost, 0, 0, fc), cost)


class TestUpdateEpsilon:
    def test_moves_below_cheapest_discovery(self):
        scenario, _ = tiny_instance(81)
        found = [entry(30.0, 5.0, scenario), entry(35.0, 4.0, scenario)]
        assert update_epsilon(found, 40.0, 1.0) == 29.0

    def test_empty_iteration_steps_down(self):
        assert update_epsilon([], 40.0, 1.0) == 39.0

    def test_discovery_above_budget_cannot_raise(self):
        scenario, _ = tiny_instance(82)
        found = [entry(38.0, 2.0, scenario)]
        assert update_epsilon(found, 35.0, 1.0) == 34.0


class TestMergeFront:
    def test_dominated_insertion_rejected(self):
        scenario, _ = tiny_instance(83)
        front = [entry(10.0, 5.0, scenario)]
        merged, added = merge_front(front, entry(12.0, 5.0, scenario))
        assert added is None and merged is front

    def test_duplicate_rejected(self):
        scenario, _ = tiny_instance(84)
        front = [entry(10.0, 5.0, scenario)]
        _, added = merge_front(front, entry(10.0, 5.0, scenario))
        assert added is None

    def test_dominating_insertion_evicts(self):
        scenario, _ = tiny_instance(85)
        front = [entry(10.0, 5.0, scenario), entry(20.0, 2.0, scenario)]
        merged, added = merge_front(front, entry(9.0, 4.0, scenario))
        assert added is not None
        pairs = [(e.objectives.cost, e.objectives.weighted_uncovered) for e in merged]
        assert pairs == [(9.0, 4.0), (20.0, 2.0)]


class TestRepair:
    def test_closes_stranded_stations(self):
        scenario, tables = tiny_instance(86, n_ban=1, n_sbs=2, n_ma=1)
        dep = Deployment.of(scenario, bans=[0], sbss=[0, 1], mas=[0])
        plan = ConnectionPlan(sbs_parent={0: ("ban", 0)})
        repaired = repair_solution(Solution(dep, plan), scenario, tables)
        assert ("sbs", 1) not in repaired.deployment.sites
        assert ("ma", 0) not in repaired.deployment.sites
        assert ("sbs", 0) in repaired.deployment.sites
        assert check_feasibility(repaired, scenario, tables) == []

    def test_trims_overloaded_chains_farthest_first(self):
        # one anchor, one station on a weak 44.7 m link (limit 1) covering two
        # subareas: repair must drop the farther one
        from backhaul_planner import LinkClassParams, RadioConfig

        link = LinkClassParams(3.5, 3.5, 0.0, 0.0, 1e9)
        radio = RadioConfig(
            access=link, backhaul=link, blockage_per_m=0.0,
            ban_tx_dbm=40.0, sbs_tx_dbm=40.0, snr_threshold_db=8.0,
        )
        scenario = generate_scenario(
            GenParams(
                width=60, height=60, subarea_side=20,
                n_ban=1, n_sbs=1, n_ma=0, n_machines=0,
                ban_positions=((10.0, 10.0),), sbs_positions=((50.0, 30.0),), ma_positions=(),
                radio=radio, ban_slots=2, max_relays=1,
            ),
            0,
        )
        from backhaul_planner.scenario import derive_tables

        tables = derive_tables(scenario)
        assert tables.ban_sbs_limit[0][0] == 1
        dep = Deployment.of(scenario, bans=[0], sbss=[0])
        plan = ConnectionPlan(
            ban_cover={0: 0},
            sbs_cover={5: 0, 2: 0},  # (50,30) at 0 m and (50,10) at 20 m
            sbs_parent={0: ("ban", 0)},
        )
        repaired = repair_solution(Solution(dep, plan), scenario, tables)
        assert repaired.plan.sbs_cover == {5: 0}
        assert check_feasibility(repaired, scenario, tables) == []

    def test_idempotent_on_feasible_solutions(self):
        scenario, tables = tiny_instance(87)
        sol = Solution.empty(scenario)
        repaired = repair_solution(sol, scenario, tables)
        assert repaired.deployment == sol.deployment
        assert repaired.plan.sbs_cover == sol.plan.sbs_cover


class TestSolve:
    def test_single_anchor_instance_reproduces_exact_front(self):
        scenario = generate_scenario(
            GenParams(
                width=50.0, height=50.0, subarea_side=10.0,
                n_ban=1, n_sbs=0, n_ma=0, n_machines=0,
                ban_positions=((25.0, 25.0),), sbs_positions=(), ma_positions=(),
                radio=TINY_RADIO,
            ),
            0,
        )
        from backhaul_planner.scenario import derive_tables

        tables = derive_tables(scenario)
        result = solve(scenario, tables, params=FAST)
        points = [(e.objectives.cost, e.objectives.weighted_uncovered) for e in result.front]
        assert points == exact_front(scenario, tables, THETA)
        assert result.epsilons == [10.0]  # one iteration at the full budget

    def test_no_anchor_sites_returns_seed_front(self):
        scenario, tables = tiny_instance(88, n_ban=0, n_sbs=2, n_ma=1, n_machines=4)
        result = solve(scenario, tables, params=FAST)
        assert len(result.front) == 1
        obj = result.front[0].objectives
        assert (obj.cost, obj.weighted_uncovered) == (
            0.0,
            scenario.n_subareas + THETA * scenario.n_machines,
        )
        assert result.bounds == [] and result.epsilons == []

    def test_front_entries_all_feasible_and_nondominated(self):
        for seed in (91, 92, 93):
            scenario, tables = tiny_instance(seed)
            result = solve(scenario, tables, params=FAST)
            for e in result.front:
                assert check_feasibility(e.solution, scenario, tables) == []
                recomputed = objectives(e.solution, scenario, THETA)
                assert recomputed == e.objectives
            points = [(e.objectives.cost, e.objectives.weighted_uncovered) for e in result.front]
            assert points == sorted(points)
            fcs = [fc for _, fc in points]
            assert all(b < a for a, b in zip(fcs, fcs[1:]))  # strict staircase

    def test_epsilon_sequence_strictly_decreasing_with_bounded_length(self):
        scenario, tables = tiny_instance(94)
        params = SolveParams(n_lagrangian=1, delta_c=2.0, search=FAST_SEARCH)
        result = solve(scenario, tables, params=params)
        eps = result.epsilons
        assert all(b < a for a, b in zip(eps, eps[1:]))
        min_ban = min(s.cost for s in scenario.ban_sites)
        limit = (scenario.total_cost() - min_ban) / params.delta_c + 1
        assert len(eps) <= limit

    def test_bounds_one_record_per_iteration(self):
        scenario, tables = tiny_instance(95)
        result = solve(scenario, tables, params=FAST)
        assert len(result.bounds) == len(result.epsilons)
        assert all(rec.heuristic for rec in result.bounds)
        assert [rec.epsilon for rec in result.bounds] == result.epsilons

    def test_bound_never_exceeds_best_feasible(self):
        for seed in (96, 97):
            scenario, tables = tiny_instance(seed)
            result = solve(scenario, tables, params=FAST)
            points = [(e.objectives.cost, e.objectives.weighted_uncovered) for e in result.front]
            for rec in result.bounds:
                feasible = [fc for c, fc in points if c <= rec.epsilon + 1e-9]
                if feasible:
                    assert rec.bound <= min(feasible) + 1e-9

    def test_bound_never_exceeds_a_cheaper_later_front_point(self):
        """The benchmark's mid-pipeline instance with seed 21 and its config:
        the sweep records a relaxed value of 579 at budget 17 and only at
        budget 11 finds a solution with fc 574, so a bound clamped to the
        front found so far contradicts the final front."""
        radio = RadioConfig(ban_tx_dbm=40.0, sbs_tx_dbm=40.0, machine_limit=100, ma_range_m=60.0)
        gen = GenParams(
            width=200.0, height=200.0, subarea_side=10.0, n_ban=3, n_sbs=15, n_ma=8, n_machines=400,
            machine_rate_bps=5e4, ban_slots=5, max_relays=2, radio=radio,
        )
        scenario = generate_scenario(gen, 21)
        search = SearchParams(n_outer=1, n_inner=2, n_div=1, n_swap=20, tenure_ban=0, tenure_station=1, seed=21)
        result = solve(scenario, derive_tables(scenario), params=SolveParams(delta_c=4.0, n_lagrangian=1, search=search))
        points = [(e.objectives.cost, e.objectives.weighted_uncovered) for e in result.front]
        assert (17.0, 574.0) in [(rec.epsilon, rec.bound) for rec in result.bounds]
        for rec in result.bounds:
            assert rec.bound <= min(fc for c, fc in points if c <= rec.epsilon + 1e-9)

    def test_matches_oracle_front_on_easy_instances(self):
        strong = SolveParams(
            n_lagrangian=3,
            search=SearchParams(n_outer=6, n_inner=8, n_div=1, tenure_ban=2, tenure_station=3, seed=4),
        )
        hits = 0
        for seed in range(10):
            scenario, tables = tiny_instance(1400 + seed)
            result = solve(scenario, tables, params=strong)
            points = [(e.objectives.cost, e.objectives.weighted_uncovered) for e in result.front]
            exact = exact_front(scenario, tables, THETA)
            for c, fc in points:
                assert fc >= best_within(exact, c) - 1e-9  # never beats the oracle
            if points == exact:
                hits += 1
        assert hits >= 7

    def test_deterministic_across_runs(self):
        scenario, tables = tiny_instance(89)
        a = solve(scenario, tables, params=FAST)
        b = solve(scenario, tables, params=FAST)
        assert [(e.objectives.cost, e.objectives.weighted_uncovered) for e in a.front] == [
            (e.objectives.cost, e.objectives.weighted_uncovered) for e in b.front
        ]
        assert a.bounds == b.bounds
        assert a.epsilons == b.epsilons

    def test_restrict_fiber_only_deploys_anchors_only(self):
        scenario, tables = tiny_instance(98, n_ban=2, n_sbs=3, n_ma=2, n_machines=6)
        import dataclasses

        result = solve(scenario, tables, params=dataclasses.replace(FAST, restrict="fiber-only"))
        for e in result.front:
            assert len(e.solution.deployment.open_sbss()) == 0
            assert len(e.solution.deployment.open_mas()) == 0

    def test_restrict_single_hop_limits_flows(self):
        scenario, tables = tiny_instance(99, n_ban=2, n_sbs=3)
        import dataclasses

        result = solve(scenario, tables, params=dataclasses.replace(FAST, restrict="single-hop"))
        for e in result.front:
            for flow in routing_flows(e.solution).values():
                assert len(flow) <= 1

    def test_restriction_never_beats_full_search(self):
        import dataclasses

        for seed in (1501, 1502, 1503):
            scenario, tables = tiny_instance(seed, n_ban=2, n_sbs=3, n_ma=1, n_machines=8)
            full = solve(scenario, tables, params=FAST)
            best_full = min(e.objectives.weighted_uncovered for e in full.front)
            for mode in ("fiber-only", "single-hop"):
                res = solve(scenario, tables, params=dataclasses.replace(FAST, restrict=mode))
                best_mode = min(e.objectives.weighted_uncovered for e in res.front)
                assert best_full <= best_mode + 1e-9


class TestFrontSearchReference:
    """``_FrontSearch.run`` ranks each candidate list once per run and offers
    each deployment to ``merge_front`` once; the rescan it replaced tested and
    offered every qualifying candidate on every visit."""

    PARAMS = SolveParams(
        n_lagrangian=3,
        search=SearchParams(n_outer=50, n_inner=50, n_div=2, tenure_ban=7, tenure_station=10, seed=0),
    )
    # a list's live candidates are re-tested against its own merges from its
    # next visit on, never on the visit that built it; on these two instances
    # re-testing on that visit too gives another search
    FIRST_VISIT = {
        seed: SolveParams(
            n_lagrangian=1,
            search=SearchParams(n_outer=4, n_inner=12, n_div=1, tenure_ban=1, tenure_station=6, seed=1),
        )
        for seed in (3000, 3001)
    }

    def sweep(self, monkeypatch, seed, run):
        """The sweep's result, the path of every front search as
        ``util.recorded_searches`` records it and every (run, solution id)
        that a front search offered to merge_front."""
        if seed in self.FIRST_VISIT:
            scenario, tables = tiny_instance(seed, n_ban=2, n_sbs=5, n_ma=3)
        else:
            scenario, tables = tiny_instance(seed)
        offers, runs, front_paths = [], [], []
        merge = pareto.merge_front

        def counting_merge(front, entry):
            if runs and runs[-1] is not None:
                offers.append((len(runs), id(entry.solution)))  # the search keeps each solution alive
            return merge(front, entry)

        def tracked_run(search, start, front):
            runs.append(search)
            front_paths.append(len(paths))  # the index of this run's search path
            try:
                return run(search, start, front)
            finally:
                runs.append(None)

        with monkeypatch.context() as patch, recorded_searches() as paths:
            patch.setattr(pareto, "merge_front", counting_merge)
            patch.setattr(pareto._FrontSearch, "run", tracked_run)
            result = solve(scenario, tables, params=self.FIRST_VISIT.get(seed, self.PARAMS))
        front = [(e.objectives.cost, e.objectives.weighted_uncovered, e.solution.deployment) for e in result.front]
        return (front, result.bounds, result.epsilons), [paths[n] for n in front_paths], offers

    @pytest.mark.parametrize("seed", [*range(2000, 2010), *FIRST_VISIT])
    def test_matches_the_rescan_reference(self, monkeypatch, seed):
        result, searched, offers = self.sweep(monkeypatch, seed, pareto._FrontSearch.run)
        reference, reference_searched, reference_offers = self.sweep(monkeypatch, seed, reference_front_run)
        assert result == reference
        assert searched == reference_searched and any(step[0] == "choose" for path in searched for step in path)
        assert max(Counter(offers).values()) == 1
        assert len(offers) < len(reference_offers)


class TestGapReport:
    def test_ratio_one_when_bound_met(self):
        report = gap_report([(10.0, 100.0)], [BoundRecord(12.0, 100.0, True)])
        assert report.max_ratio == 1.0

    def test_reported_ratio(self):
        report = gap_report([(10.0, 199.0)], [BoundRecord(12.0, 100.0, True)])
        assert report.max_ratio == pytest.approx(1.99)
        assert report.rows[0].heuristic

    def test_budgets_without_entries_are_skipped(self):
        report = gap_report([(10.0, 50.0)], [BoundRecord(5.0, 40.0, True)])
        assert report.rows == [] and report.skipped == [5.0]
        assert report.max_ratio is None

    def test_nonpositive_bounds_skipped(self):
        report = gap_report([(1.0, 5.0)], [BoundRecord(2.0, 0.0, True)])
        assert report.rows == [] and report.skipped == [2.0]
