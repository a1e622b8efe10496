"""Deployment planning for small-cell networks with multi-hop wireless
backhaul and machine-type traffic aggregation."""

__version__ = "0.1.0"

from .scenario import (
    DerivedTables,
    GenParams,
    LinkClassParams,
    Machine,
    RadioConfig,
    Scenario,
    Site,
    derive_tables,
    generate_scenario,
    load_scenario,
    preset_gen_params,
    save_scenario,
    scenario_hash,
)
from .model import (
    ConnectionPlan,
    Deployment,
    ObjectiveVector,
    Solution,
    Violation,
    check_feasibility,
    cost,
    dominates,
    objectives,
    routing_flows,
)
from .lagrangian import (
    Multipliers,
    Workspace,
    assign_connections,
    relaxed_objective,
    subgradient,
    subgradient_update,
    zero_multipliers,
)
from .tabu import SearchParams, initial_deployment, neighborhood, solve_relaxed
from .pareto import BoundRecord, FrontEntry, SolveParams, SolveResult, gap_report, repair_solution, solve
from .oracle import OracleLimitError, exact_front, exact_relaxed_optimum

__all__ = [name for name in dir() if not name.startswith("_")]
