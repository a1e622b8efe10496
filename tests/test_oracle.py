"""Exhaustive tiny-instance solvers: fronts, relaxed optima, weak duality."""

import random

import pytest

from backhaul_planner import (
    GenParams,
    LinkClassParams,
    RadioConfig,
    exact_front,
    exact_relaxed_optimum,
    generate_scenario,
    zero_multipliers,
)
from backhaul_planner.oracle import OracleLimitError, nondominated_points
from backhaul_planner.pareto import best_within
from backhaul_planner.scenario import derive_tables
from util import TINY_RADIO, random_multipliers, tiny_instance

THETA = 0.5


def lone_ban_scenario():
    return generate_scenario(
        GenParams(
            width=50.0, height=50.0, subarea_side=10.0,
            n_ban=1, n_sbs=0, n_ma=0, n_machines=0,
            ban_positions=((25.0, 25.0),), sbs_positions=(), ma_positions=(),
            radio=TINY_RADIO,
        ),
        0,
    )


class TestExactFront:
    def test_no_anchor_sites_gives_single_point(self):
        scenario = generate_scenario(
            GenParams(
                width=50.0, height=50.0, subarea_side=10.0,
                n_ban=0, n_sbs=2, n_ma=1, n_machines=4,
                radio=TINY_RADIO,
            ),
            3,
        )
        tables = derive_tables(scenario)
        front = exact_front(scenario, tables, THETA)
        assert front == [(0.0, scenario.n_subareas + THETA * scenario.n_machines)]

    def test_single_anchor_two_point_front(self):
        scenario = lone_ban_scenario()
        tables = derive_tables(scenario)
        covered = len(tables.ban_reach[0])
        assert covered > 0
        front = exact_front(scenario, tables, THETA)
        assert front == [
            (0.0, float(scenario.n_subareas)),
            (10.0, float(scenario.n_subareas - covered)),
        ]

    def test_front_is_mutually_nondominated(self):
        for seed in (41, 42, 43):
            scenario, tables = tiny_instance(seed)
            front = exact_front(scenario, tables, THETA)
            for a in front:
                for b in front:
                    if a is b:
                        continue
                    assert not (a[0] <= b[0] and a[1] <= b[1])

    def test_enumeration_order_independent(self):
        scenario, tables = tiny_instance(44)
        assert exact_front(scenario, tables, THETA) == exact_front(scenario, tables, THETA)

    def test_refuses_oversized_instances(self):
        big = generate_scenario(GenParams(n_ban=2, n_sbs=8, n_ma=1, n_machines=5, radio=TINY_RADIO, width=50, height=50), 1)
        with pytest.raises(OracleLimitError):
            exact_front(big, derive_tables(big), THETA)

    def test_refuses_too_many_subareas(self):
        wide = generate_scenario(
            GenParams(width=400, height=400, subarea_side=10, n_ban=1, n_sbs=1, n_ma=0, n_machines=0, radio=TINY_RADIO),
            1,
        )
        with pytest.raises(OracleLimitError):
            exact_front(wide, derive_tables(wide), THETA)

    def test_refuses_mixed_machine_rates(self):
        scenario, tables = tiny_instance(45, n_machines=3, n_ma=1)
        mixed = scenario.machines[0]
        machines = (type(mixed)(mixed.x, mixed.y, mixed.rate_bps * 2),) + scenario.machines[1:]
        uneven = type(scenario)(
            **{
                **{f: getattr(scenario, f) for f in scenario.__dataclass_fields__},
                "machines": machines,
            }
        )
        with pytest.raises(OracleLimitError):
            exact_front(uneven, derive_tables(uneven), THETA)

    def test_machines_extend_the_front(self):
        # an aggregator near machines must appear in some efficient solution
        link = LinkClassParams(2.0, 2.0, 0.0, 0.0, 5e9)
        radio = RadioConfig(
            access=link, backhaul=link, blockage_per_m=0.0,
            ban_tx_dbm=40.0, sbs_tx_dbm=40.0, snr_threshold_db=20.0,
            machine_limit=6, ma_range_m=20.0, user_density_per_m2=2e-5,
        )
        scenario = generate_scenario(
            GenParams(
                width=40, height=40, subarea_side=10,
                n_ban=1, n_sbs=0, n_ma=1, n_machines=5,
                ban_positions=((10.0, 10.0),), sbs_positions=(), ma_positions=((30.0, 30.0),),
                radio=radio,
            ),
            7,
        )
        tables = derive_tables(scenario)
        front = exact_front(scenario, tables, THETA)
        costs = [c for c, _ in front]
        assert 11.0 in costs  # anchor + aggregator point


class TestExactRelaxedOptimum:
    def test_zero_budget(self):
        scenario, tables = tiny_instance(46)
        value = exact_relaxed_optimum(scenario, tables, zero_multipliers(scenario), 0.0, THETA)
        assert value == scenario.n_subareas + THETA * scenario.n_machines

    def test_zero_multipliers_meet_front_when_capacity_is_slack(self):
        # low demand density: per-link limits equal the subarea count, so the
        # relaxed coverage optimum coincides with the exact optimum
        for seed in (47, 48, 49, 50):
            scenario, tables = tiny_instance(seed)
            front = exact_front(scenario, tables, THETA)
            budget = scenario.total_cost() * 0.6
            value = exact_relaxed_optimum(scenario, tables, zero_multipliers(scenario), budget, THETA)
            assert value == pytest.approx(best_within(front, budget), abs=1e-9)

    def test_weak_duality_sampled(self):
        rng = random.Random(51)
        for seed in range(5):
            scenario, tables = tiny_instance(800 + seed)
            front = exact_front(scenario, tables, THETA)
            budget = scenario.total_cost() * rng.uniform(0.3, 1.0)
            exact_best = best_within(front, budget)
            for _ in range(20):
                lam = random_multipliers(rng, scenario)
                bound = exact_relaxed_optimum(scenario, tables, lam, budget, THETA)
                assert bound <= exact_best + 1e-9

    def test_monotone_in_budget(self):
        scenario, tables = tiny_instance(52)
        lam = zero_multipliers(scenario)
        values = [
            exact_relaxed_optimum(scenario, tables, lam, b, THETA)
            for b in (0.0, 5.0, 10.0, 12.0, scenario.total_cost())
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestHelpers:
    def test_nondominated_points_staircase(self):
        points = [(10.0, 5.0), (10.0, 7.0), (12.0, 5.0), (0.0, 9.0), (15.0, 1.0)]
        assert nondominated_points(points) == [(0.0, 9.0), (10.0, 5.0), (15.0, 1.0)]

    def test_best_within(self):
        front = [(0.0, 9.0), (10.0, 5.0), (15.0, 1.0)]
        assert best_within(front, 12.0) == 5.0
        assert best_within(front, 10.0 - 1e-12) == 5.0  # within the tolerance
        assert best_within(front, -1.0) is None
