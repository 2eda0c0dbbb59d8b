"""The concolic exploration engine (dynamic analysis).

The engine implements the paper's §2.1: repeatedly execute the program with
concrete inputs, mark input-derived values as symbolic, collect the path
constraints at symbolic branches, and generate new concrete inputs by negating
individual constraints and solving.  Exploration stops when the budget
(iterations or wall-clock) is exhausted or no unexplored alternative remains.

Outputs:

* a :class:`~repro.concolic.labels.BranchLabels` labelling (symbolic /
  concrete / unvisited) used by the instrumentation methods,
* coverage numbers used to report the LC/HC configurations.

Per-location execution statistics (the branch-behaviour figures, the
planner) come from :meth:`ConcolicEngine.profile_run`, one run with the
scenario's real inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.concolic.budget import ConcolicBudget
from repro.concolic.hooks import ConcolicRunTrace
from repro.concolic.labels import BranchLabels
from repro.environment import Environment
from repro.interp.backend import create_backend
from repro.interp.inputs import ExecutionMode, InputBinder
from repro.interp.interpreter import ExecutionConfig, ExecutionResult
from repro.interp.tracer import ExecutionHooks, TraceRecorder
from repro.lang.program import Program
from repro.symbolic.constraints import ConstraintSet
from repro.symbolic.simplify import variable_names
from repro.symbolic.solver import UNKNOWN, solve, warm_start_assignment


@dataclass
class ConcolicRun:
    """Summary of one concrete execution performed during exploration."""

    iteration: int
    overrides: Dict[str, int]
    result: ExecutionResult
    constraints: int
    new_locations: int


@dataclass
class DynamicAnalysisResult:
    """Everything the dynamic analysis learned about the program."""

    labels: BranchLabels
    iterations: int = 0
    explored_paths: int = 0
    #: Full solver searches; flips the warm start answered are counted in
    #: ``warm_start_hits`` instead, and give-ups in ``solver_unknowns``.
    solver_calls: int = 0
    warm_start_hits: int = 0
    solver_unknowns: int = 0
    wall_seconds: float = 0.0
    budget: Optional[ConcolicBudget] = None
    runs: List[ConcolicRun] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        return self.labels.coverage()

    def summary(self) -> str:
        return (f"dynamic analysis [{self.budget.label if self.budget else '-'}]: "
                f"{self.iterations} runs, {self.labels.summary()}")


class ConcolicEngine:
    """Bounded concolic exploration of one program under one environment."""

    def __init__(self, program: Program, environment: Environment,
                 budget: Optional[ConcolicBudget] = None,
                 backend: str = "vm") -> None:
        self.program = program
        self.environment = environment
        self.budget = budget or ConcolicBudget()
        self.backend = backend

    # -- single profiled run (Figures 1 and 3) ----------------------------------------

    def profile_run(self, overrides: Optional[Dict[str, int]] = None) -> TraceRecorder:
        """Run once with symbolic input tracking and return per-location stats."""

        recorder = TraceRecorder(keep_events=False)
        self._execute(overrides or {}, recorder)
        return recorder

    # -- exploration ---------------------------------------------------------------------

    def explore(self, initial_overrides: Optional[Dict[str, int]] = None) -> DynamicAnalysisResult:
        """Run the concolic loop until the budget is exhausted."""

        start = time.monotonic()
        labels = BranchLabels.for_program(self.program.branch_locations)
        result = DynamicAnalysisResult(labels=labels, budget=self.budget)

        # Work queue of input overrides to try; seeded with the initial input.
        queue: List[Dict[str, int]] = [dict(initial_overrides or {})]
        seen_signatures: Set[Tuple] = set()
        scheduled_flips: Set[Tuple] = set()

        while queue:
            if result.iterations >= self.budget.max_iterations:
                break
            if time.monotonic() - start > self.budget.max_seconds:
                break
            overrides = queue.pop(0)
            trace = ConcolicRunTrace(labels)
            before_visited = len(labels.visited)
            run_result, binder = self._execute(overrides, trace)
            result.iterations += 1
            result.runs.append(ConcolicRun(
                iteration=result.iterations,
                overrides=dict(overrides),
                result=run_result,
                constraints=trace.constraint_count(),
                new_locations=len(labels.visited) - before_visited,
            ))

            # Avoid re-exploring identical paths.
            signature = trace.path_constraints.signature()
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            result.explored_paths += 1

            # Schedule negations of each constraint along this path.
            hint = binder.assignment()
            # The variables of the path up to the flipped constraint.
            path_names: Set[str] = set()
            for index in range(trace.constraint_count()):
                if result.iterations + len(queue) >= self.budget.max_iterations * 4:
                    break
                if time.monotonic() - start > self.budget.max_seconds:
                    break
                path_names.update(variable_names(trace.constraint_at(index).expr))
                flip_key = signature[: index + 1]
                flip_key = flip_key[:-1] + ((flip_key[-1][0], "!" + flip_key[-1][1]),)
                if flip_key in scheduled_flips:
                    continue
                scheduled_flips.add(flip_key)
                solution = self._solve_flip(result, trace.prefix_flipped(index),
                                            hint, path_names)
                if solution is not None:
                    queue.append(binder.merged_with(solution))

        result.wall_seconds = time.monotonic() - start
        return result

    # -- helpers -----------------------------------------------------------------------

    @staticmethod
    def _solve_flip(result: DynamicAnalysisResult, flipped: ConstraintSet,
                    hint: Dict[str, int],
                    names: Set[str]) -> Optional[Dict[str, int]]:
        """The solved input of one flip: the warm start's, or a real solve's.

        A flip is the run's own path prefix plus one negated constraint, and
        the hint is the run's input, so the warm start may rely on the
        prefix.  Its answer is cut down to *names*, the set's variables:
        exactly the assignment ``solve`` returns.
        """

        warm = warm_start_assignment(flipped, hint,
                                     satisfied_prefix=len(flipped) - 1)
        if warm is not None:
            result.warm_start_hits += 1
            return {name: warm[name] for name in names}
        solution = solve(flipped, hint=hint)
        result.solver_calls += 1
        if solution.status == UNKNOWN:
            result.solver_unknowns += 1
        if solution.satisfiable and solution.assignment is not None:
            return solution.assignment
        return None

    def _execute(self, overrides: Dict[str, int],
                 hooks: ExecutionHooks) -> Tuple[ExecutionResult, InputBinder]:
        kernel = self.environment.make_kernel()
        binder = InputBinder(mode=ExecutionMode.ANALYZE, overrides=dict(overrides))
        config = ExecutionConfig(mode=ExecutionMode.ANALYZE,
                                 max_steps=self.budget.max_steps_per_run,
                                 backend=self.backend)
        executor = create_backend(self.program, kernel=kernel, hooks=hooks,
                                  binder=binder, config=config)
        run_result = executor.run(self.environment.argv)
        return run_result, binder
