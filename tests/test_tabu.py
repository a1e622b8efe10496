"""Two-level tabu search: moves, budgets, determinism, oracle agreement."""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from backhaul_planner import (
    Deployment,
    SearchParams,
    cost,
    exact_relaxed_optimum,
    initial_deployment,
    neighborhood,
    solve_relaxed,
    zero_multipliers,
)
from backhaul_planner import tabu
from backhaul_planner.lagrangian import Workspace
from backhaul_planner.tabu import SiteMove, TabuState, two_level_search
from util import random_deployment, random_multipliers, recorded_searches, reference_diversify, stood_on, tiny_instance

THETA = 0.5
FAST = SearchParams(n_outer=4, n_inner=5, n_div=1, tenure_ban=2, tenure_station=3, seed=1)


class TestSearchParams:
    def test_tenure_must_stay_below_budget(self):
        with pytest.raises(ValueError):
            SearchParams(n_outer=5, tenure_ban=5)
        with pytest.raises(ValueError):
            SearchParams(n_inner=4, tenure_station=7)

    def test_budgets_positive(self):
        with pytest.raises(ValueError):
            SearchParams(n_outer=0)
        with pytest.raises(ValueError):
            SearchParams(n_div=0)


class TestInitialDeployment:
    def test_zero_budget_empty(self):
        scenario, tables = tiny_instance(61)
        assert initial_deployment(Workspace(scenario, tables), 0.0) == Deployment.empty(scenario)

    def test_cheapest_anchor_budget(self):
        scenario, tables = tiny_instance(62)
        cheapest = min(s.cost for s in scenario.ban_sites)
        dep = initial_deployment(Workspace(scenario, tables), cheapest)
        assert len(dep.open_bans()) == 1
        assert cost(dep, scenario) == cheapest

    def test_full_budget_opens_everything(self):
        scenario, tables = tiny_instance(63)
        dep = initial_deployment(Workspace(scenario, tables), scenario.total_cost())
        assert len(dep.open_bans()) == len(scenario.ban_sites)
        assert len(dep.open_sbss()) == len(scenario.sbs_sites)
        assert len(dep.open_mas()) == len(scenario.ma_sites)

    def test_never_exceeds_budget(self):
        rng = random.Random(9)
        for seed in range(20):
            scenario, tables = tiny_instance(900 + seed)
            budget = rng.uniform(0, scenario.total_cost())
            dep = initial_deployment(Workspace(scenario, tables), budget)
            assert cost(dep, scenario) <= budget + 1e-9


class TestNeighborhood:
    def test_move_count_matches_direct_enumeration(self):
        scenario, tables = tiny_instance(64, n_ban=2, n_sbs=3, n_ma=2)
        dep = Deployment.of(scenario, bans=[0], sbss=[1], mas=[0])
        budget = scenario.total_cost()
        moves = neighborhood(dep, "station", budget, Workspace(scenario, tables))
        sites = len(scenario.sbs_sites) + len(scenario.ma_sites)
        open_count = 2  # sbs 1 + ma 0
        closed = sites - open_count
        expected = closed + open_count + open_count * closed
        assert len(moves) == expected

    def test_full_deployment_has_no_opens(self):
        scenario, tables = tiny_instance(65)
        dep = initial_deployment(Workspace(scenario, tables), scenario.total_cost())
        moves = neighborhood(dep, "ban", scenario.total_cost(), Workspace(scenario, tables))
        assert all(m.action == "close" for m, _ in moves)

    def test_empty_level_offers_only_opens(self):
        scenario, tables = tiny_instance(66)
        dep = Deployment.empty(scenario)
        moves = neighborhood(dep, "ban", scenario.total_cost(), Workspace(scenario, tables))
        assert all(m.action == "open" for m, _ in moves)

    def test_budget_filter(self):
        scenario, tables = tiny_instance(67, n_ban=2)
        dep = Deployment.empty(scenario)
        moves = neighborhood(dep, "ban", 5.0, Workspace(scenario, tables))  # anchors cost 10
        assert moves == []

    def test_swap_cap(self):
        scenario, tables = tiny_instance(68, n_ban=3, n_sbs=3, n_ma=2)
        dep = Deployment.of(scenario, sbss=[0, 1], mas=[0])
        unlimited = neighborhood(dep, "station", scenario.total_cost(), Workspace(scenario, tables))
        capped = neighborhood(dep, "station", scenario.total_cost(), Workspace(scenario, tables), n_swap=1)
        swaps = [m for m, _ in unlimited if m.action == "swap"]
        swaps_capped = [m for m, _ in capped if m.action == "swap"]
        assert len(swaps) > 1
        assert len(swaps_capped) == 1
        assert swaps_capped[0] == swaps[0]

    def test_results_stay_within_budget(self):
        rng = random.Random(12)
        for seed in range(10):
            scenario, tables = tiny_instance(1000 + seed)
            budget = rng.uniform(5, scenario.total_cost())
            dep = initial_deployment(Workspace(scenario, tables), budget)
            for level in ("ban", "station"):
                for _, new_dep in neighborhood(dep, level, budget, Workspace(scenario, tables)):
                    assert cost(new_dep, scenario) <= budget + 1e-9


    def test_candidates_change_exactly_the_move_sites(self):
        scenario, tables = tiny_instance(69, n_ban=2, n_sbs=3, n_ma=2)
        ws = Workspace(scenario, tables)
        dep = Deployment.of(scenario, bans=[1], sbss=[0, 2], mas=[1])
        for level in ("ban", "station"):
            for move, new in neighborhood(dep, level, scenario.total_cost(), ws):
                if move.action == "open":
                    assert move.sites[0] not in dep.sites and new.sites == dep.sites | {move.sites[0]}
                elif move.action == "close":
                    assert move.sites[0] in dep.sites and new.sites == dep.sites - {move.sites[0]}
                else:
                    closing, opening = move.sites
                    assert closing in dep.sites and opening not in dep.sites
                    assert new.sites == (dep.sites - {closing}) | {opening}

    def test_same_open_sites_give_one_cache_entry(self):
        scenario, tables = tiny_instance(69, n_ban=2, n_sbs=3, n_ma=2)
        a = Deployment.of(scenario, bans=[0, 1], sbss=[2, 0], mas=[1])
        b = Deployment.of(scenario, bans=(1, 0), sbss=range(0, 3, 2), mas=[1, 1])
        assert a == b and hash(a) == hash(b)
        ws = Workspace(scenario, tables)
        lam = zero_multipliers(scenario)
        assert ws.evaluate(a, lam) == ws.evaluate(b, lam)
        assert len(ws._value_cache) == 1

    @pytest.mark.parametrize("role, index", [("bans", 2), ("sbss", 3), ("mas", 2), ("sbss", -1)])
    def test_of_rejects_an_index_outside_the_site_list(self, role, index):
        scenario, _ = tiny_instance(69, n_ban=2, n_sbs=3, n_ma=2)
        with pytest.raises(IndexError):
            Deployment.of(scenario, **{role: [index]})


class TestSolveRelaxed:
    def test_budget_below_anchor_costs(self):
        scenario, tables = tiny_instance(71)
        sol, value = solve_relaxed(Workspace(scenario, tables, theta=THETA), zero_multipliers(scenario), 5.0, FAST)
        assert value == scenario.n_subareas + THETA * scenario.n_machines

    def test_deterministic(self):
        scenario, tables = tiny_instance(72)
        budget = scenario.total_cost() * 0.7
        lam = zero_multipliers(scenario)
        with recorded_searches() as paths:
            a = solve_relaxed(Workspace(scenario, tables, theta=THETA), lam, budget, FAST)
            b = solve_relaxed(Workspace(scenario, tables, theta=THETA), lam, budget, FAST)
        assert a[1] == b[1]
        assert a[0].deployment == b[0].deployment
        assert len(paths) == 2 and paths[0] == paths[1]

    def test_more_iterations_never_worse(self):
        scenario, tables = tiny_instance(73)
        budget = scenario.total_cost() * 0.8
        lam = zero_multipliers(scenario)
        small = solve_relaxed(Workspace(scenario, tables, theta=THETA), lam, budget, FAST)
        big_params = dataclasses.replace(FAST, n_outer=FAST.n_outer * 2, n_inner=FAST.n_inner * 2)
        big = solve_relaxed(Workspace(scenario, tables, theta=THETA), lam, budget, big_params)
        assert big[1] <= small[1] + 1e-9

    def test_incumbent_nonincreasing(self):
        """The incumbent is the best deployment the search stood on: its
        start, each visit, each diversification and its end."""
        for seed in range(74, 78):
            scenario, tables = tiny_instance(seed)
            ws = Workspace(scenario, tables, theta=THETA)
            lam = random_multipliers(random.Random(seed), scenario) if seed % 2 else zero_multipliers(scenario)
            with recorded_searches() as paths:
                _, value = solve_relaxed(ws, lam, scenario.total_cost() * 0.7, FAST)
            assert value == min(ws.evaluate(dep, lam) for dep in stood_on(paths[0]))

    def test_every_candidate_within_budget(self):
        scenario, tables = tiny_instance(75)
        budget = scenario.total_cost() * 0.6
        seen = []

        class Spy(Workspace):
            def evaluate(self, deployment, multipliers):
                seen.append(cost(deployment, scenario))
                return super().evaluate(deployment, multipliers)

        ws = Spy(scenario, tables, theta=THETA)
        solve_relaxed(ws, zero_multipliers(scenario), budget, FAST)
        assert seen and all(c <= budget + 1e-9 for c in seen)

    def test_solution_budget_and_value_consistency(self):
        rng = random.Random(13)
        for seed in range(8):
            scenario, tables = tiny_instance(1100 + seed)
            budget = rng.uniform(10, scenario.total_cost())
            lam = random_multipliers(rng, scenario)
            sol, value = solve_relaxed(Workspace(scenario, tables, theta=THETA), lam, budget, FAST)
            assert cost(sol.deployment, scenario) <= budget + 1e-9

    def test_diversification_fires_and_stays_valid(self):
        scenario, tables = tiny_instance(76, n_ban=1, n_sbs=2, n_ma=0)
        params = SearchParams(n_outer=2, n_inner=8, n_div=1, tenure_ban=1, tenure_station=7, seed=3)
        with recorded_searches() as paths:
            sol, value = solve_relaxed(
                Workspace(scenario, tables, theta=THETA), zero_multipliers(scenario), scenario.total_cost(), params,
            )
        assert any(step[0] == "diversified" for step in paths[0])
        assert cost(sol.deployment, scenario) <= scenario.total_cost() + 1e-9

    def test_matches_exact_relaxed_optimum_on_tiny_instances(self):
        generous = SearchParams(n_outer=8, n_inner=10, n_div=1, tenure_ban=3, tenure_station=4, seed=5)
        hits = 0
        for seed in range(30):
            scenario, tables = tiny_instance(1200 + seed)
            budget = scenario.total_cost() * 0.75
            lam = zero_multipliers(scenario)
            _, value = solve_relaxed(Workspace(scenario, tables, theta=THETA), lam, budget, generous)
            exact = exact_relaxed_optimum(scenario, tables, lam, budget, THETA)
            assert value >= exact - 1e-9  # never better than possible
            if value <= exact + 1e-9:
                hits += 1
        assert hits >= 27

    def test_never_better_than_oracle_with_random_multipliers(self):
        rng = random.Random(14)
        for seed in range(10):
            scenario, tables = tiny_instance(1300 + seed)
            budget = scenario.total_cost() * rng.uniform(0.4, 1.0)
            lam = random_multipliers(rng, scenario)
            _, value = solve_relaxed(Workspace(scenario, tables, theta=THETA), lam, budget, FAST)
            exact = exact_relaxed_optimum(scenario, tables, lam, budget, THETA)
            assert value >= exact - 1e-9

    @pytest.mark.parametrize("seed", [2000, 2001, 2003])
    def test_each_candidate_is_evaluated_once_per_search(self, monkeypatch, seed):
        """A revisited neighbourhood is ranked once: ``ws.evaluate`` sees each
        candidate of each memoized list at most once per search."""
        scenario, tables = tiny_instance(seed)
        ws = Workspace(scenario, tables, theta=THETA)
        lists, evaluated = [], []
        original, evaluate = tabu.neighborhood, ws.evaluate

        def recording(*args):
            lists.append(original(*args))
            return lists[-1]

        def counting(deployment, multipliers):
            evaluated.append(deployment)  # kept alive, so no id is reused
            return evaluate(deployment, multipliers)

        monkeypatch.setattr(tabu, "neighborhood", recording)
        monkeypatch.setattr(ws, "evaluate", counting)
        with recorded_searches() as paths:
            solve_relaxed(ws, zero_multipliers(scenario), scenario.total_cost() / 2, SearchParams(seed=4))
        calls = Counter(map(id, evaluated))
        assert sum(step[0] == "choose" for step in paths[0]) > len(lists)  # the search revisited some lists
        assert all(calls[id(dep)] <= 1 for candidates in lists for _, dep in candidates)


class TestDiversify:
    @pytest.mark.parametrize("restrict", ["none", "fiber-only"])
    @pytest.mark.parametrize("seed", range(2000, 2010))
    def test_matches_the_rescan_reference(self, seed, restrict):
        """Same deployment and same random draws as the loop that sorted the
        closable stations again and priced the deployment on every pass."""
        scenario, tables = tiny_instance(seed)
        ws = Workspace(scenario, tables, theta=THETA, restrict=restrict)
        draw = random.Random(seed)
        drew = 0
        for _ in range(40):
            dep = random_deployment(draw, scenario)
            frequency = {site: draw.randint(0, 5) for site in ws.sites["station"] if draw.random() < 0.7}
            budget = draw.uniform(0.0, scenario.total_cost())
            params = SearchParams(n_div=draw.randint(1, 3))
            rng, reference_rng = random.Random(draw.random()), random.Random()
            state = rng.getstate()
            reference_rng.setstate(state)
            got = tabu._diversify(dep, ws, budget, frequency, params, rng)
            assert got == reference_diversify(dep, ws, budget, frequency, params, reference_rng)
            assert rng.getstate() == reference_rng.getstate()
            drew += rng.getstate() != state
        assert drew > 0 or restrict == "fiber-only"


SITE_KEYS = st.tuples(st.sampled_from(["ban", "sbs", "ma"]), st.integers(0, 3))
MOVES = st.lists(SITE_KEYS, min_size=1, max_size=2, unique=True).map(
    lambda sites: SiteMove("open" if len(sites) == 1 else "swap", tuple(sites))
)
# each step advances the clock by 0..2 ticks, then marks a move, clears the
# memory or tests some moves
STEPS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.one_of(
            st.tuples(st.just("mark"), MOVES),
            st.tuples(st.just("clear"), st.none()),
            st.tuples(st.just("test"), st.lists(MOVES, min_size=1, max_size=4)),
        ),
    ),
    max_size=40,
)


class TestTabuTest:
    @given(st.integers(0, 4), STEPS)
    @example(0, [(0, ("mark", SiteMove("open", (("sbs", 1),)))), (0, ("test", [SiteMove("close", (("sbs", 1),))]))])
    @example(3, [
        (0, ("mark", SiteMove("open", (("sbs", 1),)))),
        (2, ("mark", SiteMove("swap", (("sbs", 1), ("ma", 0))))),  # marked again while tabu
        (2, ("test", [SiteMove("close", (("sbs", 1),))])),  # past the first mark's expiry
        (1, ("test", [SiteMove("close", (("sbs", 1),)), SiteMove("close", (("ma", 0),))])),
    ])
    def test_agrees_with_the_expiry_rule(self, tenure, steps):
        """Any mark/clear/test sequence on a clock that never decreases: a
        move is tabu if a site of it was last marked at a clock whose expiry,
        that clock plus the tenure, lies after the test's clock."""
        state, expiry, clock = TabuState(tenure), {}, 0
        for tick, (action, arg) in steps:
            clock += tick
            if action == "mark":
                state.mark(arg, clock)
                expiry.update(dict.fromkeys(arg.sites, clock + tenure))
            elif action == "clear":
                state.clear()
                expiry.clear()
            else:
                is_tabu = state.test(clock)
                for move in arg:
                    assert is_tabu(move) == any(expiry.get(site, clock) > clock for site in move.sites)


class TestNeighbourhoodMemo:
    # end sites of the search below, recorded when every step built its own
    # neighbourhood
    UNMEMOIZED_ENDS = {
        2000: [("ban", 0), ("ma", 0)],
        2001: [("ban", 0), ("ma", 0), ("sbs", 0)],
        2002: [("ban", 0), ("ma", 0), ("sbs", 0)],
        2003: [("ma", 0), ("ma", 1), ("sbs", 0), ("sbs", 1), ("sbs", 2)],
        2004: [("ban", 2), ("ma", 0), ("ma", 1), ("sbs", 0)],
    }

    @pytest.mark.parametrize("seed", sorted(UNMEMOIZED_ENDS))
    def test_each_key_is_built_once_per_search(self, monkeypatch, seed):
        scenario, tables = tiny_instance(seed)
        ws = Workspace(scenario, tables, theta=THETA)
        lam = zero_multipliers(scenario)
        budget = scenario.total_cost() / 2
        built, path, steps = [], [], []
        original = tabu.neighborhood

        def counting(deployment, level, *args):
            built.append((deployment.sites, level))
            return original(deployment, level, *args)

        def choose(outer, inner, candidates, is_tabu):
            level = "ban" if inner < 0 else "station"
            steps.append((path[-1].sites, level))
            assert candidates == original(path[-1], level, budget, ws)  # what an unmemoized step builds
            allowed = [(ws.evaluate(dep, lam), n) for n, (move, dep) in enumerate(candidates) if not is_tabu(move)]
            return min(allowed)[1] if allowed else None

        monkeypatch.setattr(tabu, "neighborhood", counting)
        start = initial_deployment(ws, budget)
        end = two_level_search(start, budget, ws, SearchParams(seed=4), random.Random(4), {},
                               lambda candidates: candidates, choose, lambda dep, *_: path.append(dep))
        assert len(built) == len(set(built))
        assert set(steps) <= set(built) and len(steps) > len(built)
        assert sorted(end.sites) == self.UNMEMOIZED_ENDS[seed]
