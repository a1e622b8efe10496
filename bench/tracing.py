"""In-memory tracing of the planner's layers, installed from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``backhaul_planner`` module that holds it, so callers that imported the
function by name see the wrapper too; methods are replaced on their class.
Nothing under ``src/`` changes. ``uninstall`` puts the originals back.

Per function the tracer keeps a call count, inclusive time and self time
(inclusive time minus the time spent in traced callees). Coarse calls (one
solve, one budget, one CLI stage) also leave a span with its start, end and
parent span, kept in memory and written out once by the caller.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

from backhaul_planner import cli, lagrangian, model, oracle, pareto, scenario, tabu

# (owner, attribute, stat name, leaves a span)
TARGETS = [
    (scenario, "derive_tables", "scenario.derive_tables", False),
    (scenario, "load_tables", "scenario.load_tables", False),
    (lagrangian, "_assign", "lagrangian.assign", False),
    (lagrangian, "_anchor_phase", "lagrangian.anchor_phase", False),
    (lagrangian.Workspace, "evaluate", "lagrangian.evaluate", False),
    (lagrangian.Workspace, "build_plan", "lagrangian.build_plan", False),
    (tabu, "solve_relaxed", "tabu.solve_relaxed", False),
    (tabu, "neighborhood", "tabu.neighborhood", False),
    (tabu, "_diversify", "tabu.diversify", False),
    (pareto, "solve", "pareto.solve", True),
    (pareto, "repair_solution", "pareto.repair_solution", False),
    (pareto, "merge_front", "pareto.merge_front", False),
    (pareto._FrontSearch, "run", "pareto.front_search", False),
    (model, "check_feasibility", "model.check_feasibility", False),
    (oracle, "exact_front", "oracle.exact_front", False),
    (cli, "cmd_gen", "cli.gen", True),
    (cli, "cmd_derive", "cli.derive", True),
    (cli, "cmd_solve", "cli.solve", True),
    (cli, "cmd_check", "cli.check", True),
    (cli, "cmd_report", "cli.report", True),
]


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    extra: int = 0  # cache hits for evaluate, moves generated for neighborhood


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self._child_time: list[float] = []  # one slot per active traced call
        self._open_spans: list[int] = []
        self._budget_span: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- spans ----------------------------------------------------------------

    def _open_span(self, name: str, **attrs) -> int:
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent, **attrs})
        self._open_spans.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close_span(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._open_spans.remove(idx)

    def _enter_budget(self, budget: float) -> None:
        """A budget starts with its first relaxed solve and ends when its
        front search returns."""
        if self._budget_span is None:
            self._budget_span = self._open_span("budget", epsilon=budget)

    def _leave_budget(self) -> None:
        if self._budget_span is not None:
            self._close_span(self._budget_span)
            self._budget_span = None

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str, span: bool):
        st = self.stat(name)
        assign = self.stat("lagrangian.assign")
        child_time = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "tabu.solve_relaxed":
                self._enter_budget(args[2])
            span_idx = self._open_span(name) if span else None
            assigns_before = assign.calls
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                st.calls += 1
                st.total += elapsed
                st.self_time += elapsed - inner
                if span_idx is not None:
                    self._close_span(span_idx)
                if name in ("pareto.front_search", "pareto.solve"):
                    self._leave_budget()
            if name == "lagrangian.evaluate" and assign.calls == assigns_before:
                st.extra += 1  # served from the value cache
            elif name == "tabu.neighborhood":
                st.extra += len(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "backhaul_planner" or n.startswith("backhaul_planner.")]
        for owner, attr, name, span in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, span)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

