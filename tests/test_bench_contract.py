"""The benchmark's contract with the planner.

``bench/tracing.py`` looks its targets up by name when it loads, and a traced
run replaces them with timing wrappers. A renamed target breaks every
benchmark run, traced or not; a target the solver no longer calls leaves its
per-layer metrics at zero. This imports the tracer as the benchmark does and
checks both.
"""

import sys
from pathlib import Path

import pytest

from backhaul_planner import pareto
from backhaul_planner.pareto import SolveParams
from backhaul_planner.tabu import SearchParams
from util import tiny_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def test_every_target_resolves(tracing):
    for owner, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), name


def test_tiny_solve_calls_the_search_layers(tracing):
    scenario, tables = tiny_instance(2002)
    params = SolveParams(n_lagrangian=2, max_iterations=3, search=SearchParams(seed=4))
    original = pareto.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = pareto.solve(scenario, tables, params=params)
    finally:
        tracer.uninstall()
    assert pareto.solve is original
    calls = {name: stat.calls for name, stat in tracer.stats.items()}
    layers = ("tabu.solve_relaxed", "pareto.front_search", "tabu.neighborhood", "tabu.diversify", "pareto.merge_front")
    for name in layers:
        assert calls.get(name, 0) >= 1, (name, calls)
    assert len(result.epsilons) == 3
    assert calls["pareto.front_search"] == 3  # one per budget
    assert calls["tabu.solve_relaxed"] == 3 * params.n_lagrangian
