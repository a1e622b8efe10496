"""Solution structures: objectives, dominance, routing, feasibility checks."""

import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from backhaul_planner import (
    ConnectionPlan,
    Deployment,
    GenParams,
    LinkClassParams,
    ObjectiveVector,
    RadioConfig,
    Scenario,
    Solution,
    check_feasibility,
    cost,
    derive_tables,
    dominates,
    generate_scenario,
    objectives,
    routing_flows,
)
from backhaul_planner.model import IntegrityError, solution_from_dict, solution_to_dict
from backhaul_planner.scenario import Machine, Site

# 60 m x 60 m box, 20 m subareas (3x3 grid, centers at 10/30/50).
# No shadowing/blockage, a 3.5 loss exponent and an 8 dB service threshold
# give an exact 10.88 m access radius: every station covers precisely the
# centers placed 10 m away and nothing further.
_LINK = LinkClassParams(3.5, 3.5, 0.0, 0.0, 1e9)
_RADIO = RadioConfig(
    access=_LINK,
    backhaul=_LINK,
    blockage_per_m=0.0,
    ban_tx_dbm=40.0,
    sbs_tx_dbm=40.0,
    snr_threshold_db=8.0,
    machine_limit=2,
    ma_range_m=25.0,
)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        width=60.0,
        height=60.0,
        radio=_RADIO,
        ban_sites=(Site(10.0, 10.0, 10.0), Site(50.0, 50.0, 10.0)),
        sbs_sites=(Site(20.0, 10.0, 1.0), Site(40.0, 10.0, 1.0), Site(50.0, 30.0, 1.0), Site(30.0, 50.0, 1.0)),
        ma_sites=(Site(10.0, 30.0, 1.0),),
        machines=(
            Machine(12.0, 30.0, 5e7),
            Machine(10.0, 32.0, 5e7),
            Machine(8.0, 30.0, 5e7),
            Machine(50.0, 10.0, 5e7),
        ),
        subarea_side=20.0,
        ban_slots=2,
        max_relays=1,
    )


@pytest.fixture(scope="module")
def tables(scenario):
    return derive_tables(scenario)


# subarea indices on the 3x3 grid (row-major from the bottom row)
S_10_10, S_30_10, S_50_10 = 0, 1, 2
S_10_30, S_30_30, S_50_30 = 3, 4, 5
S_10_50, S_30_50, S_50_50 = 6, 7, 8


class TestCost:
    def test_empty_deployment_costs_nothing(self, scenario):
        assert cost(Deployment.empty(scenario), scenario) == 0.0

    def test_counts_times_unit_costs(self):
        scenario = generate_scenario(GenParams(n_ban=5, n_sbs=40, n_ma=20, n_machines=0), 9)
        dep = Deployment.of(scenario, bans=range(4), sbss=range(18), mas=range(7))
        assert cost(dep, scenario) == 4 * 10 + 18 * 1 + 7 * 1 == 65

    def test_adding_one_station_adds_its_cost(self, scenario):
        base = Deployment.of(scenario, bans=[0])
        more = Deployment.of(scenario, bans=[0], sbss=[2])
        assert cost(more, scenario) - cost(base, scenario) == scenario.sbs_sites[2].cost


class TestObjectives:
    def test_empty_plan(self, scenario):
        obj = objectives(Solution.empty(scenario), scenario, mtc_weight=0.5)
        assert obj.uncovered_subareas == scenario.n_subareas
        assert obj.uncovered_machines == scenario.n_machines
        assert obj.weighted_uncovered == scenario.n_subareas + 0.5 * scenario.n_machines
        assert obj.cost == 0.0

    def test_zero_weight_ignores_machines(self, scenario):
        sol = Solution.empty(scenario)
        sol.plan.ban_cover = {S_10_10: 0}
        sol.deployment = Deployment.of(scenario, bans=[0])
        obj = objectives(sol, scenario, mtc_weight=0.0)
        assert obj.weighted_uncovered == obj.uncovered_subareas

    def test_full_coverage_scores_zero(self):
        radio = RadioConfig(access=_LINK, backhaul=_LINK, blockage_per_m=0.0, ban_tx_dbm=55.0, sbs_tx_dbm=55.0)
        scenario = Scenario(
            width=20.0,
            height=20.0,
            radio=radio,
            ban_sites=(Site(10.0, 10.0, 10.0),),
            sbs_sites=(),
            ma_sites=(),
            machines=(),
            subarea_side=20.0,
        )
        sol = Solution(Deployment.of(scenario, bans=[0]), ConnectionPlan(ban_cover={0: 0}))
        assert objectives(sol, scenario, 0.5).weighted_uncovered == 0.0


class TestDominance:
    def test_equal_pairs_do_not_dominate(self):
        a = ObjectiveVector(10, 5, 0, 5)
        assert not dominates(a, a)

    def test_cheaper_same_quality_dominates(self):
        a = ObjectiveVector(9, 5, 0, 5)
        b = ObjectiveVector(10, 5, 0, 5)
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_incomparable(self):
        a = ObjectiveVector(9, 6, 0, 6)
        b = ObjectiveVector(10, 5, 0, 5)
        assert not dominates(a, b)
        assert not dominates(b, a)

    vectors = st.builds(
        ObjectiveVector,
        st.integers(0, 6).map(float),
        st.just(0),
        st.just(0),
        st.integers(0, 6).map(float),
    )

    @given(a=vectors)
    def test_irreflexive(self, a):
        assert not dominates(a, a)

    @given(a=vectors, b=vectors)
    def test_antisymmetric(self, a, b):
        assert not (dominates(a, b) and dominates(b, a))

    @given(a=vectors, b=vectors, c=vectors)
    def test_transitive(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


def chain_solution(scenario) -> Solution:
    """BAN 0 covering its own cell, chain BAN0 -> SBS0 -> SBS1 with SBS1
    covering the middle-bottom cell, MA 0 on BAN 0 with two machines."""
    dep = Deployment.of(scenario, bans=[0], sbss=[0, 1], mas=[0])
    plan = ConnectionPlan(
        ban_cover={S_10_10: 0},
        sbs_cover={S_30_10: 1},
        sbs_parent={0: ("ban", 0), 1: ("sbs", 0)},
        ma_parent={0: 0},
        machine_cover={0: 0, 1: 0},
    )
    return Solution(dep, plan)


class TestRouting:
    def test_ban_covered_subarea_has_empty_flow(self, scenario):
        flows = routing_flows(chain_solution(scenario))
        assert flows[S_10_10] == []

    def test_chain_flow_lists_each_hop(self, scenario):
        flows = routing_flows(chain_solution(scenario))
        assert flows[S_30_10] == [(("ban", 0), ("sbs", 0)), (("sbs", 0), ("sbs", 1))]

    def test_missing_root_is_integrity_error(self, scenario):
        sol = chain_solution(scenario)
        del sol.plan.sbs_parent[0]
        with pytest.raises(IntegrityError):
            routing_flows(sol)

    def test_cycle_is_integrity_error(self, scenario):
        sol = chain_solution(scenario)
        sol.plan.sbs_parent[0] = ("sbs", 1)
        with pytest.raises(IntegrityError):
            routing_flows(sol)

    def test_feasible_solutions_respect_hop_budget(self, scenario, tables):
        sol = chain_solution(scenario)
        assert check_feasibility(sol, scenario, tables) == []
        max_hops = scenario.max_relays + 1
        for flow in routing_flows(sol).values():
            assert len(flow) <= max_hops


class TestFeasibility:
    def test_empty_solution_feasible(self, scenario, tables):
        assert check_feasibility(Solution.empty(scenario), scenario, tables) == []

    def test_chain_solution_feasible(self, scenario, tables):
        assert check_feasibility(chain_solution(scenario), scenario, tables) == []

    def test_check_is_pure(self, scenario, tables):
        sol = chain_solution(scenario)
        assert check_feasibility(sol, scenario, tables) == check_feasibility(sol, scenario, tables)

    def codes(self, sol, scenario, tables, budget=None):
        return {v.code for v in check_feasibility(sol, scenario, tables, budget)}

    def test_open_sbs_without_parent(self, scenario, tables):
        sol = chain_solution(scenario)
        del sol.plan.sbs_parent[1]
        del sol.plan.sbs_cover[S_30_10]
        assert "sbs-backhaul" in self.codes(sol, scenario, tables)

    def test_hop_budget_violation(self, scenario, tables):
        dep = Deployment.of(scenario, bans=[0], sbss=[0, 1, 2])
        plan = ConnectionPlan(
            sbs_cover={S_50_30: 2},
            sbs_parent={0: ("ban", 0), 1: ("sbs", 0), 2: ("sbs", 1)},
        )
        assert "hop-limit" in self.codes(Solution(dep, plan), scenario, tables)

    def test_anchor_slot_budget(self, scenario, tables):
        dep = Deployment.of(scenario, bans=[0], sbss=[0, 1, 2])
        plan = ConnectionPlan(
            sbs_parent={0: ("ban", 0), 1: ("ban", 0), 2: ("ban", 0)},
        )
        assert "ban-slots" in self.codes(Solution(dep, plan), scenario, tables)

    def test_backhaul_load_limit(self, scenario, tables):
        # the 44.7 m link BAN0 -> SBS2 only sustains one subarea
        assert tables.ban_sbs_limit[0][2] == 1
        dep = Deployment.of(scenario, bans=[0], sbss=[2, 3])
        plan = ConnectionPlan(
            sbs_cover={S_50_30: 2, S_30_50: 3},
            sbs_parent={2: ("ban", 0), 3: ("sbs", 2)},
        )
        assert "sbs-capacity" in self.codes(Solution(dep, plan), scenario, tables)

    def test_duplicate_coverage(self, scenario, tables):
        sol = chain_solution(scenario)
        sol.plan.sbs_cover[S_10_10] = 0
        assert "duplicate-coverage" in self.codes(sol, scenario, tables)

    def test_access_distance(self, scenario, tables):
        sol = chain_solution(scenario)
        sol.plan.sbs_cover[S_50_50] = 0
        assert "access-distance" in self.codes(sol, scenario, tables)

    def test_cover_by_closed_station(self, scenario, tables):
        sol = chain_solution(scenario)
        sol.plan.ban_cover[S_50_50] = 1  # BAN 1 not deployed
        assert "cover-undeployed" in self.codes(sol, scenario, tables)

    def test_link_to_closed_station(self, scenario, tables):
        sol = chain_solution(scenario)
        sol.plan.sbs_parent[1] = ("sbs", 3)  # SBS 3 not deployed
        assert "link-undeployed" in self.codes(sol, scenario, tables)

    def test_open_ma_needs_anchor_link(self, scenario, tables):
        sol = chain_solution(scenario)
        del sol.plan.ma_parent[0]
        assert "ma-backhaul" in self.codes(sol, scenario, tables)

    def test_machine_count_limit(self, scenario, tables):
        sol = chain_solution(scenario)
        sol.plan.machine_cover[2] = 0  # third machine beyond the limit of 2
        assert "ma-machine-limit" in self.codes(sol, scenario, tables)

    def test_machine_distance(self, scenario, tables):
        sol = chain_solution(scenario)
        del sol.plan.machine_cover[1]
        sol.plan.machine_cover[3] = 0  # machine at (50, 10), 44 m away
        assert "machine-distance" in self.codes(sol, scenario, tables)

    def test_aggregate_rate_capacity(self, scenario, tables):
        # hanging the MA off the far anchor leaves only ~39 Mbps of backhaul,
        # below the 100 Mbps the two machines aggregate
        sol = chain_solution(scenario)
        sol.deployment = Deployment.of(scenario, bans=[0, 1], sbss=[0, 1], mas=[0])
        sol.plan.ma_parent[0] = 1
        assert "ma-capacity" in self.codes(sol, scenario, tables)

    def test_missing_machine_left_out_of_an_over_capacity_sum(self, scenario, tables):
        # machine 7 does not exist: it is reported as out of range and adds
        # nothing to the 100 Mbps the two real machines send over ~63 Mbps
        sol = chain_solution(scenario)
        sol.deployment = Deployment.of(scenario, bans=[0, 1], sbss=[0, 1], mas=[0])
        sol.plan.ma_parent[0] = 1
        sol.plan.machine_cover[7] = 0
        assert [(v.code, v.subject, v.detail) for v in check_feasibility(sol, scenario, tables)] == [
            ("machine-distance", (0, 7), "machine 7 out of range of ma 0"),
            ("ma-machine-limit", (0,), "ma 0 covers 3 > 2 machines"),
            ("ma-capacity", (0,), "ma 0 aggregates 100000000 bps > link capacity 63297413"),
        ]

    def test_routing_cycle_reported_not_raised(self, scenario, tables):
        sol = chain_solution(scenario)
        sol.plan.sbs_parent[0] = ("sbs", 1)
        assert "routing-integrity" in self.codes(sol, scenario, tables)

    def test_broken_chain_and_cycle_reported_per_subarea(self, scenario, tables):
        # SBSs 0 and 1 form a cycle, SBS 2 hangs off SBS 3, which has no
        # parent; SBS 0 and SBS 3 cover two subareas each, so each of their
        # subareas gets its own violation from the one root-path walk
        dep = Deployment.of(scenario, bans=[0], sbss=[0, 1, 2, 3])
        plan = ConnectionPlan(
            sbs_cover={S_10_10: 0, S_30_10: 0, S_50_10: 1, S_50_30: 2, S_10_50: 3, S_30_50: 3},
            sbs_parent={0: ("sbs", 1), 1: ("sbs", 0), 2: ("sbs", 3)},
        )
        assert [(v.code, v.subject, v.detail) for v in check_feasibility(Solution(dep, plan), scenario, tables)] == [
            ("access-distance", (3, 6), "subarea 6 out of range of sbs 3"),
            ("sbs-backhaul", (3,), "open sbs 3 has no backhaul link"),
            ("routing-integrity", (0, 0), "cycle in backhaul forest at sbs 0"),
            ("routing-integrity", (1, 0), "cycle in backhaul forest at sbs 0"),
            ("routing-integrity", (2, 1), "cycle in backhaul forest at sbs 1"),
            ("routing-integrity", (5, 2), "sbs 2 has no path to a BAN (chain breaks at sbs 3)"),
            ("routing-integrity", (6, 3), "sbs 3 has no path to a BAN (chain breaks at sbs 3)"),
            ("routing-integrity", (7, 3), "sbs 3 has no path to a BAN (chain breaks at sbs 3)"),
        ]

    def test_budget_cap(self, scenario, tables):
        sol = chain_solution(scenario)
        assert "budget" in self.codes(sol, scenario, tables, budget=5.0)
        assert "budget" not in self.codes(sol, scenario, tables, budget=50.0)

    def test_machines_out_of_reach_at_two_mas_and_a_missing_one(self, scenario):
        """MA 1 sits 20 m from machine 3 and about 40 m from the others."""
        two_mas = dataclasses.replace(scenario, ma_sites=scenario.ma_sites + (Site(50.0, 30.0, 1.0),))
        tables = derive_tables(two_mas)
        assert tables.ma_reach == ((0, 1, 2), (3,))
        sol = chain_solution(two_mas)
        sol.deployment = Deployment.of(two_mas, bans=[0, 1], sbss=[0, 1], mas=[0, 1])
        sol.plan.ma_parent = {0: 0, 1: 1}
        sol.plan.machine_cover = {0: 1, 1: 0, 2: 5, 3: 0}
        assert [(v.code, v.subject) for v in check_feasibility(sol, two_mas, tables)] == [
            ("cover-undeployed", (5, 2)),
            ("machine-distance", (1, 0)),
            ("machine-distance", (5, 2)),
            ("machine-distance", (0, 3)),
        ]

    def test_out_of_range_indices_reported_not_crashing(self, scenario, tables):
        sol = chain_solution(scenario)
        sol.plan.sbs_parent[1] = ("sbs", 99)
        sol.plan.ban_cover[999] = 0
        sol.plan.machine_cover[77] = 0
        codes = self.codes(sol, scenario, tables)
        assert "link-undeployed" in codes
        assert "access-distance" in codes
        assert "machine-distance" in codes


class TestSerialization:
    def test_round_trip(self, scenario):
        sol = chain_solution(scenario)
        data = json.loads(json.dumps(solution_to_dict(sol, scenario, 0.5)))
        back = solution_from_dict(data, scenario)
        assert back.deployment == sol.deployment
        assert back.plan.ban_cover == sol.plan.ban_cover
        assert back.plan.sbs_cover == sol.plan.sbs_cover
        assert back.plan.sbs_parent == sol.plan.sbs_parent
        assert back.plan.ma_parent == sol.plan.ma_parent
        assert back.plan.machine_cover == sol.plan.machine_cover

    def test_objectives_recorded(self, scenario):
        sol = chain_solution(scenario)
        data = solution_to_dict(sol, scenario, 0.5)
        obj = objectives(sol, scenario, 0.5)
        assert data["objectives"] == {
            "f1": obj.cost,
            "f2": obj.uncovered_subareas,
            "f3": obj.uncovered_machines,
            "fc": obj.weighted_uncovered,
        }
