"""Relaxed objective, connection assignment, move deltas, subgradient."""

import math
import random

import pytest
from hypothesis import given, strategies as st

import backhaul_planner.lagrangian as lagrangian
from backhaul_planner import (
    Deployment,
    GenParams,
    LinkClassParams,
    RadioConfig,
    Solution,
    assign_connections,
    generate_scenario,
    objectives,
    relaxed_objective,
    routing_flows,
    subgradient_update,
    zero_multipliers,
)
from backhaul_planner.lagrangian import (
    PathState,
    Workspace,
    _anchor_phase,
    _assign,
    apply_move,
    delta_attach_ban,
    delta_insert_after,
    delta_insert_before,
)
from backhaul_planner.model import ConnectionPlan, IntegrityError
from backhaul_planner.pareto import _workspace
from backhaul_planner.scenario import Machine, Site, derive_tables, preset_gen_params
from util import (
    cached_tables,
    random_deployment,
    random_multipliers,
    random_path_state,
    random_solution,
    reference_assign,
    state_solution,
    tiny_instance,
)

THETA = 0.5


def raw_relaxed_value(solution, multipliers, theta, scenario, tables) -> float:
    """Independent recomputation from the raw connection variables, using the
    per-anchor and per-station terms in their original (pre-path) form."""
    plan = solution.plan
    flows = routing_flows(solution)
    total_m = 0.0
    for k in range(len(scenario.ban_sites)):
        cov = sum(1 for kk in plan.ban_cover.values() if kk == k)
        lam_caps = sum(
            multipliers[i] * tables.ban_sbs_limit[k][i]
            for i, (kind, p) in plan.sbs_parent.items()
            if kind == "ban" and p == k
        )
        total_m += cov + lam_caps
    total_n = 0.0
    for i in plan.sbs_parent:
        own = sum(1 for ii in plan.sbs_cover.values() if ii == i)
        relayed = sum(
            1 for edges in flows.values() for a, b in edges if a == ("sbs", i)
        )
        kind, p = plan.sbs_parent[i]
        parent_cap = tables.sbs_sbs_limit[p][i] if kind == "sbs" else 0
        total_n += (multipliers[i] - 1.0) * own + multipliers[i] * (relayed - parent_cap)
    return (
        scenario.n_subareas
        + theta * scenario.n_machines
        - total_m
        + total_n
        - theta * len(plan.machine_cover)
    )


class TestRelaxedObjective:
    def test_empty_solution(self):
        scenario, tables = tiny_instance(31)
        value = relaxed_objective(Solution.empty(scenario), zero_multipliers(scenario), THETA, scenario, tables)
        assert value.value == scenario.n_subareas + THETA * scenario.n_machines

    def test_zero_multipliers_reduce_to_weighted_uncoverage(self):
        rng = random.Random(99)
        for seed in range(40):
            scenario, tables = tiny_instance(400 + seed)
            sol = random_solution(rng, scenario, tables)
            val = relaxed_objective(sol, zero_multipliers(scenario), THETA, scenario, tables)
            assert val.value == objectives(sol, scenario, THETA).weighted_uncovered

    def test_matches_raw_formula_recomputation(self):
        rng = random.Random(7)
        for seed in range(60):
            scenario, tables = tiny_instance(500 + seed)
            sol = random_solution(rng, scenario, tables)
            lam = random_multipliers(rng, scenario)
            val = relaxed_objective(sol, lam, THETA, scenario, tables)
            raw = raw_relaxed_value(sol, lam, THETA, scenario, tables)
            assert val.value == pytest.approx(raw, abs=1e-9)

    def test_decomposition_identity(self):
        rng = random.Random(8)
        scenario, tables = tiny_instance(55)
        sol = random_solution(rng, scenario, tables)
        lam = random_multipliers(rng, scenario)
        val = relaxed_objective(sol, lam, THETA, scenario, tables)
        rebuilt = (
            scenario.n_subareas
            + THETA * scenario.n_machines
            - sum(val.ban_terms.values())
            + sum(val.sbs_terms.values())
            - THETA * val.covered_machines
        )
        assert rebuilt == pytest.approx(val.value, abs=1e-12)

    def test_cycle_raises_integrity_error(self):
        scenario, tables = tiny_instance(32, n_sbs=3, n_ban=1)
        dep = Deployment.of(scenario, bans=[0], sbss=[0, 1])
        plan = ConnectionPlan(sbs_parent={0: ("sbs", 1), 1: ("sbs", 0)})
        with pytest.raises(IntegrityError):
            relaxed_objective(Solution(dep, plan), zero_multipliers(scenario), THETA, scenario, tables)


def single_link_scenario(max_relays=2, ban_slots=5, n_sbs=1):
    link = LinkClassParams(2.5, 2.5, 0.0, 0.0, 2e9)
    radio = RadioConfig(
        access=link, backhaul=link, blockage_per_m=0.0, ban_tx_dbm=40.0, sbs_tx_dbm=40.0,
        snr_threshold_db=0.0, user_density_per_m2=2e-5,
    )
    sbs_sites = tuple(Site(30.0 + 10.0 * n, 10.0, 1.0) for n in range(n_sbs))
    return generate_scenario(
        GenParams(
            width=80.0, height=40.0, subarea_side=10.0,
            n_ban=1, n_sbs=n_sbs, n_ma=0, n_machines=0,
            ban_positions=((10.0, 10.0),),
            sbs_positions=tuple((s.x, s.y) for s in sbs_sites),
            ma_positions=(),
            ban_slots=ban_slots, max_relays=max_relays, radio=radio,
        ),
        0,
    )


class TestAssignConnections:
    def test_single_sbs_attaches_and_covers(self):
        scenario = single_link_scenario()
        tables = derive_tables(scenario)
        dep = Deployment.of(scenario, bans=[0], sbss=[0])
        plan, value = assign_connections(dep, zero_multipliers(scenario), scenario, tables, THETA)
        assert plan.sbs_parent == {0: ("ban", 0)}
        reachable = set(tables.sbs_reach[0])
        uncovered_reach = reachable - set(plan.ban_cover)
        expected_cover = min(tables.ban_sbs_limit[0][0], len(uncovered_reach))
        own = [s for s, i in plan.sbs_cover.items() if i == 0]
        assert len(own) == expected_cover
        # exhaustive check over the only attachment choice: V = S - covered
        assert value == scenario.n_subareas - len(plan.ban_cover) - len(own)

    def test_no_anchor_means_no_attachments(self):
        scenario, tables = tiny_instance(33, n_ban=2, n_sbs=3, n_ma=2, n_machines=6)
        dep = Deployment.of(scenario, sbss=[0, 1, 2], mas=[0])
        plan, value = assign_connections(dep, zero_multipliers(scenario), scenario, tables, THETA)
        assert plan.sbs_parent == {} and plan.ma_parent == {}
        assert value == scenario.n_subareas + THETA * scenario.n_machines

    def test_slot_contention_attaches_best_station_only(self):
        scenario = single_link_scenario(max_relays=0, ban_slots=1, n_sbs=2)
        tables = derive_tables(scenario)
        dep = Deployment.of(scenario, bans=[0], sbss=[0, 1])
        plan, value = assign_connections(dep, zero_multipliers(scenario), scenario, tables, THETA)
        assert len(plan.sbs_parent) == 1
        # brute force over which station gets the single slot
        best = math.inf
        ban_covered = set(plan.ban_cover)
        for i in (0, 1):
            gain = min(
                tables.ban_sbs_limit[0][i],
                len(set(tables.sbs_reach[i]) - ban_covered),
            )
            best = min(best, scenario.n_subareas - len(ban_covered) - gain)
        assert value == best

    def test_value_matches_relaxed_objective(self):
        rng = random.Random(17)
        for seed in range(30):
            scenario, tables = tiny_instance(600 + seed)
            ws = Workspace(scenario, tables, theta=THETA)
            dep = Deployment.of(
                scenario,
                bans=[k for k in range(len(scenario.ban_sites)) if rng.random() < 0.7],
                sbss=[i for i in range(len(scenario.sbs_sites)) if rng.random() < 0.7],
                mas=[j for j in range(len(scenario.ma_sites)) if rng.random() < 0.7],
            )
            lam = random_multipliers(rng, scenario)
            result = ws.build_plan(dep, lam)
            recomputed = relaxed_objective(
                Solution(dep, result.plan), lam, THETA, scenario, tables
            )
            assert result.value == pytest.approx(recomputed.value, abs=1e-9)

    def test_structural_invariants(self):
        rng = random.Random(23)
        for seed in range(25):
            scenario, tables = tiny_instance(700 + seed, busy=rng.random() < 0.5)
            ws = Workspace(scenario, tables, theta=THETA)
            dep = Deployment.of(
                scenario,
                bans=[k for k in range(len(scenario.ban_sites)) if rng.random() < 0.8],
                sbss=list(range(len(scenario.sbs_sites))),
                mas=list(range(len(scenario.ma_sites))),
            )
            lam = random_multipliers(rng, scenario)
            result = ws.build_plan(dep, lam)
            plan = result.plan
            sol = Solution(dep, plan)
            # acyclic with anchored roots and bounded hops
            flows = routing_flows(sol)
            assert all(len(f) <= scenario.max_relays + 1 for f in flows.values())
            # unique coverage
            assert not (set(plan.ban_cover) & set(plan.sbs_cover))
            # anchor slots
            use = {}
            for i, (kind, p) in plan.sbs_parent.items():
                if kind == "ban":
                    use[p] = use.get(p, 0) + 1
            for j, k in plan.ma_parent.items():
                use[k] = use.get(k, 0) + 1
            assert all(v <= scenario.ban_slots for v in use.values())
            # own coverage within the link limit
            own = {}
            for s, i in plan.sbs_cover.items():
                own[i] = own.get(i, 0) + 1
            for i, r in own.items():
                assert r <= tables.sbs_limit(plan.sbs_parent[i], i)

    def test_deterministic(self):
        scenario, tables = tiny_instance(34)
        dep = Deployment.of(scenario, bans=[0], sbss=list(range(len(scenario.sbs_sites))))
        a = assign_connections(dep, zero_multipliers(scenario), scenario, tables, THETA)
        b = assign_connections(dep, zero_multipliers(scenario), scenario, tables, THETA)
        assert a[1] == b[1]
        assert a[0].sbs_parent == b[0].sbs_parent and a[0].sbs_cover == b[0].sbs_cover


def assert_same_as_reference(ws, dep, lam):
    got = _assign(ws, dep, lam)
    ref = reference_assign(ws, dep, lam)
    assert got.plan.sbs_cover == ref.plan.sbs_cover
    assert got.plan.sbs_parent == ref.plan.sbs_parent
    assert got.plan.ban_cover == ref.plan.ban_cover
    assert got.stranded_sbss == ref.stranded_sbss
    assert got.value.hex() == ref.value.hex()


class TestIncrementalAssign:
    """The incremental assignment picks the full rescan's moves, bit for bit."""

    @given(
        seed=st.integers(0, 10**6),
        n_sbs=st.integers(1, 6),
        style=st.sampled_from(["zero", "small", "mixed"]),
        busy=st.booleans(),
        open_p=st.sampled_from([0.6, 1.0]),
    )
    def test_matches_full_rescan_on_tiny_instances(self, seed, n_sbs, style, busy, open_p):
        scenario, tables = tiny_instance(seed, n_sbs=n_sbs, busy=busy)
        rng = random.Random(seed)
        lam = random_multipliers(rng, scenario, style)
        dep = random_deployment(rng, scenario, open_p)
        assert_same_as_reference(Workspace(scenario, tables, theta=THETA), dep, lam)

    def test_comparison_exercises_drops(self, monkeypatch):
        # multipliers of 1 and more price downstream coverage out; make sure
        # the equivalence is checked on plans that contain such moves
        applied = []
        real_apply = lagrangian.apply_move

        def spy(state, move):
            applied.append(move)
            real_apply(state, move)

        monkeypatch.setattr(lagrangian, "apply_move", spy)
        rng = random.Random(5)
        for seed in range(60):
            scenario, tables = tiny_instance(seed, n_sbs=rng.randint(2, 6), busy=rng.random() < 0.5)
            lam = random_multipliers(rng, scenario, "mixed")
            dep = random_deployment(rng, scenario, 0.8)
            assert_same_as_reference(Workspace(scenario, tables, theta=THETA), dep, lam)
        assert any(m.drops for m in applied)
        assert any(m.kind == "before" for m in applied) and any(m.kind == "after" for m in applied)

    @pytest.mark.parametrize("restrict", ["none", "single-hop"])
    def test_matches_full_rescan_on_paper_fig2(self, restrict):
        scenario = generate_scenario(preset_gen_params("paper-fig2"), 0)
        tables = cached_tables(scenario)
        ws = _workspace(scenario, tables, THETA, restrict)
        rng = random.Random(0)
        random_lam = tuple(rng.uniform(0.0, 2.0) for _ in scenario.sbs_sites)
        for n in (5, 10, 20, 40):
            dep = Deployment.of(scenario, bans=range(len(scenario.ban_sites)), sbss=range(n))
            for lam in (zero_multipliers(scenario), random_lam):
                assert_same_as_reference(ws, dep, lam)


class TestMoveDeltas:
    def test_attach_at_zero_multiplier_is_minus_coverage(self):
        scenario = single_link_scenario()
        tables = derive_tables(scenario)
        ws = Workspace(scenario, tables, theta=THETA)
        dep = Deployment.of(scenario, bans=[0], sbss=[0])
        state = PathState(ws, zero_multipliers(scenario), _anchor_phase(ws, dep))
        avail = state.uncovered_in_reach(0)
        move = delta_attach_ban(state, 0, 0, avail)
        assert move.delta == -min(tables.ban_sbs_limit[0][0], avail)

    def test_attach_at_unit_multiplier_is_minus_limit(self):
        scenario = single_link_scenario()
        tables = derive_tables(scenario)
        ws = Workspace(scenario, tables, theta=THETA)
        dep = Deployment.of(scenario, bans=[0], sbss=[0])
        lam = (1.0,)
        state = PathState(ws, lam, _anchor_phase(ws, dep))
        move = delta_attach_ban(state, 0, 0, state.uncovered_in_reach(0))
        assert move.delta == -float(tables.ban_sbs_limit[0][0])

    def test_insert_before_with_zero_multipliers_is_minus_new_coverage(self):
        scenario = single_link_scenario(n_sbs=2)
        tables = derive_tables(scenario)
        ws = Workspace(scenario, tables, theta=THETA)
        dep = Deployment.of(scenario, bans=[0], sbss=[0, 1])
        state = PathState(ws, zero_multipliers(scenario), _anchor_phase(ws, dep))
        first = delta_attach_ban(state, 1, 0, state.uncovered_in_reach(1))
        apply_move(state, first)
        avail = state.uncovered_in_reach(0)
        move = delta_insert_before(state, 0, 1, avail)
        assert move.delta == -move.r_new
        assert move.r_new == min(tables.ban_sbs_limit[0][0], avail)

    def test_large_prefix_drops_downstream_coverage(self):
        scenario = single_link_scenario(n_sbs=2)
        tables = derive_tables(scenario)
        ws = Workspace(scenario, tables, theta=THETA)
        dep = Deployment.of(scenario, bans=[0], sbss=[0, 1])
        lam = (1.5, 0.0)  # inserting station 0 prices downstream coverage out
        state = PathState(ws, lam, _anchor_phase(ws, dep))
        apply_move(state, delta_attach_ban(state, 1, 0, state.uncovered_in_reach(1)))
        r_before = state.r(1)
        assert r_before > 0
        move = delta_insert_before(state, 0, 1, state.uncovered_in_reach(0))
        assert move.drops == (1,)
        assert move.r_new == 0  # its own prefix exceeds the coverage payoff
        apply_move(state, move)
        assert state.r(1) == 0

    @pytest.mark.parametrize("style", ["zero", "small", "mixed"])
    def test_delta_equals_recomputation(self, style):
        rng = random.Random(hash(style) % 100000)
        checked = 0
        attempts = 0
        while checked < 250 and attempts < 2000:
            attempts += 1
            seed = rng.randint(0, 10**6)
            scenario, tables = tiny_instance(seed, n_sbs=rng.randint(2, 4))
            lam = random_multipliers(rng, scenario, style)
            ws, dep, state, unattached = random_path_state(rng, scenario, tables, lam)
            if not unattached:
                continue
            i = rng.choice(unattached)
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
            before = relaxed_objective(state_solution(dep, state), lam, THETA, scenario, tables).value
            apply_move(state, move)
            after = relaxed_objective(state_solution(dep, state), lam, THETA, scenario, tables).value
            assert after - before == pytest.approx(move.delta, abs=1e-9)
            checked += 1
        assert checked >= 200


class TestPathStateBookkeeping:
    def test_derived_sets_match_parent_forest(self):
        rng = random.Random(3)
        for _ in range(20):
            seed = rng.randint(0, 10**6)
            scenario, tables = tiny_instance(seed, n_sbs=rng.randint(2, 4))
            lam = random_multipliers(rng, scenario)
            ws, dep, state, _ = random_path_state(rng, scenario, tables, lam)
            for i in state.parent:
                chain = state.chain_of[i]
                assert chain.nodes[state.hop(i) - 1] == i
                walked = []
                node = i
                while True:
                    kind, idx = state.parent[node]
                    if kind == "ban":
                        assert idx == chain.ban
                        break
                    walked.append(idx)
                    node = idx
                assert list(reversed(walked)) == state.ancestors(i)
                assert len(chain.nodes) == max(state.hop(u) for u in chain.nodes)
                assert len(chain.nodes) <= scenario.max_relays + 1


class TestSubgradient:
    def test_slack_keeps_multipliers_at_zero(self):
        scenario = single_link_scenario()
        tables = derive_tables(scenario)
        dep = Deployment.of(scenario, bans=[0], sbss=[0])
        plan, _ = assign_connections(dep, zero_multipliers(scenario), scenario, tables, THETA)
        sol = Solution(dep, plan)
        lam = subgradient_update(zero_multipliers(scenario), sol, tables, 10.0, 5.0, 1.0)
        assert lam == zero_multipliers(scenario)

    def test_single_violation_moves_by_step_times_violation(self):
        # loads: station carries 4 subareas over a limit of 1 -> g = 3;
        # upper-lower = 9 and |g|^2 = 9 give a unit step
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
        tables = derive_tables(scenario)
        assert tables.ban_sbs_limit[0][0] == 1
        dep = Deployment.of(scenario, bans=[0], sbss=[0])
        plan = ConnectionPlan(
            sbs_cover={1: 0, 2: 0, 5: 0, 8: 0},
            sbs_parent={0: ("ban", 0)},
        )
        lam = subgradient_update((0.0,), Solution(dep, plan), tables, 9.0, 0.0, 1.0)
        assert lam == (3.0,)

    def test_negative_gradient_clamped_at_zero(self):
        scenario = single_link_scenario()
        tables = derive_tables(scenario)
        dep = Deployment.of(scenario, bans=[0], sbss=[0])
        plan, _ = assign_connections(dep, zero_multipliers(scenario), scenario, tables, THETA)
        lam = subgradient_update((0.2,), Solution(dep, plan), tables, 100.0, 0.0, 0.01)
        assert lam[0] >= 0.0

    def test_repeated_updates_reduce_violation(self):
        # overloaded chain: repeated rounds should not let the violation grow
        scenario, tables = tiny_instance(33021, n_ban=1, n_sbs=3, n_ma=0, busy=True)
        ws = Workspace(scenario, tables, theta=THETA)
        dep = Deployment.of(scenario, bans=[0], sbss=[0, 1, 2])
        lam = zero_multipliers(scenario)

        def max_violation(sol):
            from backhaul_planner.model import sbs_loads

            loads = sbs_loads(sol)
            worst = 0
            for i, parent in sol.plan.sbs_parent.items():
                worst = max(worst, loads.get(i, 0) - tables.sbs_limit(parent, i))
            return worst

        result = ws.build_plan(dep, lam)
        initial = max_violation(Solution(dep, result.plan))
        trace = [initial]
        for _ in range(12):
            sol = Solution(dep, result.plan)
            lam = subgradient_update(lam, sol, tables, scenario.n_subareas + 1.0, result.value, 0.5)
            result = ws.build_plan(dep, lam)
            trace.append(max_violation(Solution(dep, result.plan)))
        assert min(trace) <= max(initial, 0)
        assert all(lam_i >= 0 for lam_i in lam)
