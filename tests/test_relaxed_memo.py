"""The relaxed-search memo: ``tabu.solve_relaxed`` returns a stored result
for a search that drew nothing from its RNG, whatever the seed.

The differential tests solve each sweep twice, once as it runs and once on a
workspace whose memo never stores, and require every float of both to agree
by ``float.hex``. ``pareto.solve`` empties the memo at each budget, so the
cross-budget test shares one workspace between budgets to check that a
stored result serves only its own budget.
"""

import pytest

from backhaul_planner import pareto, tabu
from backhaul_planner.lagrangian import Workspace, zero_multipliers
from backhaul_planner.pareto import SolveParams
from backhaul_planner.tabu import SearchParams, solve_relaxed
from util import tiny_instance

CRITERION_2 = SolveParams(
    n_lagrangian=10,
    search=SearchParams(n_outer=50, n_inner=50, n_div=2, tenure_ban=7, tenure_station=10, seed=0),
)


class NeverStores(dict):
    """A relaxed memo that keeps nothing, so every call searches."""

    def __setitem__(self, key, value):
        pass


class UnmemoizedWorkspace(Workspace):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.relaxed_cache = NeverStores()


@pytest.fixture
def searches(monkeypatch):
    """The number of ``two_level_search`` runs so far, relaxed and front."""
    count = [0]
    search = tabu.two_level_search

    def counted(*args, **kwargs):
        count[0] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(tabu, "two_level_search", counted)
    return count


def _hex(row) -> list:
    return [x.hex() if isinstance(x, float) else x for x in row]


def relaxed_rows(solved) -> list:
    solution, value = solved
    plan = solution.plan
    return [
        sorted(solution.deployment.sites),
        [sorted(part.items()) for part in (plan.ban_cover, plan.sbs_cover, plan.sbs_parent, plan.ma_parent,
                                           plan.machine_cover)],
        value.hex(),
    ]


def sweep_rows(result) -> list:
    """Front, bounds, budgets and multiplier trace, floats by float.hex."""
    front = [
        [_hex([e.epsilon, e.objectives.cost, e.objectives.uncovered_subareas, e.objectives.uncovered_machines,
               e.objectives.weighted_uncovered]), relaxed_rows((e.solution, 0.0))]
        for e in result.front
    ]
    bounds = [_hex([b.epsilon, b.bound, b.heuristic]) for b in result.bounds]
    return [front, bounds, _hex(result.epsilons), [_hex(row) for row in result.multiplier_trace]]


def solve_both(monkeypatch, searches, scenario, tables, params):
    """(memoized rows, unmemoized rows, memoized searches, unmemoized searches)."""
    searches[0] = 0
    memoized = sweep_rows(pareto.solve(scenario, tables, params))
    served = searches[0]
    with monkeypatch.context() as patch:
        patch.setattr(pareto, "Workspace", UnmemoizedWorkspace)
        searches[0] = 0
        plain = sweep_rows(pareto.solve(scenario, tables, params))
    return memoized, plain, served, searches[0]


class TestDifferential:
    @pytest.mark.parametrize("restrict", ["none", "single-hop"])
    def test_a_sweep_with_the_memo_is_bit_identical(self, monkeypatch, searches, restrict):
        scenario, tables = tiny_instance(2056)
        params = SolveParams(n_lagrangian=CRITERION_2.n_lagrangian, search=CRITERION_2.search, restrict=restrict)
        memoized, plain, served, searched = solve_both(monkeypatch, searches, scenario, tables, params)
        assert memoized == plain
        assert served < searched  # the memo served some round

    def test_the_criterion_2_sweeps_are_bit_identical(self, monkeypatch, searches):
        saved = 0
        for seed in range(30):
            scenario, tables = tiny_instance(2000 + seed)
            memoized, plain, served, searched = solve_both(monkeypatch, searches, scenario, tables, CRITERION_2)
            assert memoized == plain, seed
            saved += searched - served
        assert saved > 0

    @pytest.mark.parametrize("seed", [2000, 2009, 2056])
    def test_a_shared_workspace_serves_each_budget_its_own_result(self, seed):
        scenario, tables = tiny_instance(seed)
        memoized, plain = Workspace(scenario, tables), UnmemoizedWorkspace(scenario, tables)
        zero = zero_multipliers(scenario)
        for share in (1.0, 0.7, 0.5, 0.3):
            budget = share * scenario.total_cost()
            for rng_seed in range(3):
                params = SearchParams(seed=rng_seed)
                assert relaxed_rows(solve_relaxed(memoized, zero, budget, params)) == relaxed_rows(
                    solve_relaxed(plain, zero, budget, params)
                ), (share, rng_seed)


class TestUse:
    def test_a_draw_free_budget_searches_once(self, monkeypatch, searches):
        """At the top budget no diversification has to close a site, and the
        multipliers stay zero: three rounds, one relaxed search and the
        budget's front search."""
        scenario, tables = tiny_instance(2003)
        params = SolveParams(n_lagrangian=3, max_iterations=1, search=SearchParams(seed=0))
        rounds = [0]
        relaxed = tabu.solve_relaxed

        def counted(*args, **kwargs):
            rounds[0] += 1
            return relaxed(*args, **kwargs)

        monkeypatch.setattr(tabu, "solve_relaxed", counted)
        result = pareto.solve(scenario, tables, params)
        assert [row[4] for row in result.multiplier_trace] == [0.0] * 3  # the largest multiplier
        assert rounds[0] == 3 and searches[0] == 2

    def test_a_search_that_draws_is_not_stored(self, searches):
        """tiny_instance(2000) at half its total cost diversifies past the
        budget, so each seed searches again."""
        scenario, tables = tiny_instance(2000)
        ws = Workspace(scenario, tables)
        for rng_seed in range(3):
            solve_relaxed(ws, zero_multipliers(scenario), 0.5 * scenario.total_cost(), SearchParams(seed=rng_seed))
        assert searches[0] == 3
