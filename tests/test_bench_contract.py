"""The benchmark's contract with the planner.

``bench/tracing.py`` looks its targets up by name when it loads, and a traced
run replaces them with timing wrappers. A renamed target breaks every
benchmark run, traced or not; a target the solver no longer calls leaves its
per-layer metrics at zero. This imports the tracer as the benchmark does and
checks both. It also reads every file under ``bench/`` and ``scripts/`` and
checks that each planner name it imports, and each attribute it reads off an
imported planner module, still exists, so that a deletion that would break
the benchmark fails here first.
"""

import ast
import importlib
import sys
from pathlib import Path
from types import ModuleType

import pytest

from backhaul_planner import oracle, pareto
from backhaul_planner.pareto import SolveParams
from backhaul_planner.tabu import SearchParams
from util import tiny_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"
SCRIPTS = BENCH.parent / "scripts"


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


def _planner_member(module: str, name: str):
    """``module.name``, importing it if it is a submodule; None if absent."""
    found = getattr(importlib.import_module(module), name, None)
    if found is None:
        try:
            found = importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            pass
    return found


@pytest.mark.parametrize(
    "path", sorted([*BENCH.glob("*.py"), *SCRIPTS.glob("*.py")]), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_every_planner_name_a_file_uses_resolves(path):
    tree = ast.parse(path.read_text(), str(path))
    modules: dict[str, ModuleType] = {}  # local name -> planner module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "backhaul_planner":
            for alias in node.names:
                found = _planner_member(node.module, alias.name)
                assert found is not None, f"{path.name}:{node.lineno}: {node.module} has no {alias.name}"
                if isinstance(found, ModuleType):
                    modules[alias.asname or alias.name] = found
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "backhaul_planner":
                    importlib.import_module(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            owner = modules[node.value.id]
            assert hasattr(owner, node.attr), f"{path.name}:{node.lineno}: {owner.__name__} has no {node.attr}"


def test_the_oracle_cache_the_benchmark_clears_exists():
    # bench/workload.py empties it before every round
    assert isinstance(oracle._enumerators, dict)
