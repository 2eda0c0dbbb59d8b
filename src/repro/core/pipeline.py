"""The end-to-end pipeline: analyse → instrument → record → reproduce."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Set, Tuple

from repro.analysis.dataflow import StaticAnalysisResult, StaticAnalyzer
from repro.concolic.budget import ConcolicBudget
from repro.concolic.engine import ConcolicEngine, DynamicAnalysisResult
from repro.core.config import PipelineConfig
from repro.core.results import (
    AnalysisResult,
    BranchLoggingStats,
    RecordingResult,
    ReplayReport,
)
from repro.environment import Environment
from repro.instrument.logger import BranchLogger
from repro.instrument.methods import InstrumentationMethod, build_plan
from repro.instrument.overhead import OverheadModel
from repro.instrument.plan import InstrumentationPlan
from repro.interp.backend import create_backend
from repro.interp.inputs import ExecutionMode, InputBinder
from repro.interp.interpreter import ExecutionConfig, ExecutionResult
from repro.interp.tracer import NullHooks, TraceRecorder
from repro.lang.program import Program
from repro.replay.budget import ReplayBudget
from repro.replay.engine import ReplayEngine
from repro.telemetry import span as telemetry_span
from repro.trace import Trace, load_trace, save_trace, trace_from_recording

#: Step cap of a user-site run (the uninstrumented baseline included).
RECORD_MAX_STEPS = 10_000_000


class Pipeline:
    """Orchestrates the full workflow for one program."""

    def __init__(self, program: Program, config: Optional[PipelineConfig] = None) -> None:
        self.program = program
        self.config = config or PipelineConfig()
        self.overhead_model = OverheadModel()
        self._baseline_cache: Dict[Environment, int] = {}

    # -- construction -----------------------------------------------------------------------

    @classmethod
    def from_source(cls, source: str, name: str = "program",
                    config: Optional[PipelineConfig] = None,
                    library_functions: Optional[Set[str]] = None) -> "Pipeline":
        config = config or PipelineConfig()
        if library_functions:
            # A copy: the caller's config (often shared across workloads, as
            # the service's is) must not carry this program's library set.
            config = dataclasses.replace(
                config, library_functions=set(library_functions))
        program = Program.from_source(source, name=name,
                                      library_functions=config.library_functions)
        return cls(program, config)

    # -- analyses -----------------------------------------------------------------------------

    def run_dynamic_analysis(self, environment: Environment,
                             budget: Optional[ConcolicBudget] = None) -> DynamicAnalysisResult:
        engine = ConcolicEngine(self.program, environment,
                                budget or self.config.concolic_budget,
                                backend=self.config.backend)
        return engine.explore()

    def run_static_analysis(self) -> StaticAnalysisResult:
        analyzer = StaticAnalyzer(self.program,
                                  skip_functions=self.config.library_functions)
        return analyzer.run()

    def analyze(self, environment: Environment,
                budget: Optional[ConcolicBudget] = None) -> AnalysisResult:
        """Run both analyses (the paper's pre-deployment phase)."""

        dynamic = self.run_dynamic_analysis(environment, budget)
        static = self.run_static_analysis()
        return AnalysisResult(dynamic=dynamic, static=static)

    def profile_branch_behavior(self, environment: Environment) -> TraceRecorder:
        """One symbolic-tracking run with the scenario's real inputs.

        This is the measurement behind the paper's Figures 1 and 3: per branch
        location, how many times it executed and how many of those executions
        had an input-dependent condition.
        """

        engine = ConcolicEngine(self.program, environment, self.config.concolic_budget,
                                backend=self.config.backend)
        return engine.profile_run()

    # -- instrumentation -----------------------------------------------------------------------

    def make_plan(self, method: InstrumentationMethod,
                  analysis: Optional[AnalysisResult] = None,
                  environment: Optional[Environment] = None,
                  log_syscalls: Optional[bool] = None) -> InstrumentationPlan:
        """Build an instrumentation plan for *method*.

        If *analysis* is omitted, the required analyses are run on demand
        (which needs *environment* for the dynamic part).
        """

        needs_dynamic = method in (InstrumentationMethod.DYNAMIC,
                                   InstrumentationMethod.DYNAMIC_PLUS_STATIC)
        needs_static = method in (InstrumentationMethod.STATIC,
                                  InstrumentationMethod.DYNAMIC_PLUS_STATIC)
        dynamic = analysis.dynamic if analysis else None
        static = analysis.static if analysis else None
        if needs_dynamic and dynamic is None:
            if environment is None:
                raise ValueError("dynamic analysis requires an environment")
            dynamic = self.run_dynamic_analysis(environment)
        if needs_static and static is None:
            static = self.run_static_analysis()
        return build_plan(method, self.program.branch_locations,
                          dynamic_labels=dynamic.labels if dynamic else None,
                          static_result=static,
                          log_syscalls=self.config.log_syscalls
                          if log_syscalls is None else log_syscalls)

    def make_all_plans(self, analysis: AnalysisResult,
                       log_syscalls: Optional[bool] = None
                       ) -> Dict[InstrumentationMethod, InstrumentationPlan]:
        """Plans for the four instrumented configurations studied in the paper."""

        return {method: self.make_plan(method, analysis, log_syscalls=log_syscalls)
                for method in InstrumentationMethod.paper_methods()}

    # -- recording (user site) ---------------------------------------------------------------------

    def baseline_steps(self, environment: Environment) -> int:
        """Interpreter steps of the uninstrumented run (the ``none`` config)."""

        cached = self._baseline_cache.get(environment)
        if cached is not None:
            return cached
        result = self._plain_run(environment)
        self._baseline_cache[environment] = result.steps
        return result.steps

    def _plain_run(self, environment: Environment) -> ExecutionResult:
        executor = create_backend(
            self.program,
            kernel=environment.make_kernel(),
            hooks=NullHooks(),
            binder=InputBinder(mode=ExecutionMode.RECORD),
            config=ExecutionConfig(mode=ExecutionMode.RECORD,
                                   max_steps=RECORD_MAX_STEPS,
                                   backend=self.config.backend),
        )
        return executor.run(environment.argv)

    def record(self, plan: InstrumentationPlan, environment: Environment) -> RecordingResult:
        """Execute the instrumented program at the simulated user site."""

        logger = BranchLogger(plan)
        executor = create_backend(
            self.program,
            kernel=environment.make_kernel(),
            hooks=logger,
            binder=InputBinder(mode=ExecutionMode.RECORD),
            config=ExecutionConfig(mode=ExecutionMode.RECORD,
                                   max_steps=RECORD_MAX_STEPS,
                                   backend=self.config.backend,
                                   profile_opcodes=(self.config.telemetry_enabled
                                                    and self.config.profile_opcodes)),
        )
        # The span (and the VM's opcode counts) land in whatever telemetry
        # registry the caller has active — a shared no-op when none is.
        with telemetry_span("record.run", scenario=environment.name,
                            method=getattr(plan.method, "value", plan.method)):
            execution = executor.run(environment.argv)
        baseline = self.baseline_steps(environment)
        overhead = self.overhead_model.report(
            method=plan.method,
            base_units=baseline,
            instrumented_branch_executions=logger.instrumented_executions,
            logged_syscall_results=logger.syscall_log.count() if plan.log_syscalls else 0,
            buffer_flushes=logger.bitvector.flushes,
            storage_bytes=logger.storage_bytes(),
        )
        return RecordingResult(
            plan=plan,
            environment=environment,
            bitvector=logger.bitvector,
            syscall_log=logger.syscall_log,
            crash_site=execution.crash,
            execution=execution,
            overhead=overhead,
            baseline_steps=baseline,
        )

    # -- replay (developer site) -----------------------------------------------------------------------

    def reproduce(self, recording: RecordingResult,
                  budget: Optional[ReplayBudget] = None,
                  scenario: str = "") -> ReplayReport:
        """Attempt to reproduce the recorded crash from its bug report.

        The search replays exactly the trace a user site would ship for
        *recording* (see :func:`~repro.trace.trace_from_recording`).
        """

        return self.reproduce_from_trace(
            trace_from_recording(recording, program_name=self.program.name),
            budget=budget, scenario=scenario)

    # -- trace persistence (the user/developer split) -----------------------------------------

    def record_trace(self, plan: InstrumentationPlan, environment: Environment,
                     path: str, scaffold: bool = True) -> RecordingResult:
        """Record at the simulated user site and persist the bug report.

        The file written to *path* is everything the paper's user machine
        ships to the developer: bitvector, selected syscall results, crash
        site and the structural input scaffold (with ``scaffold=True``, the
        default, the user's data is blanked out before it is serialized).
        """

        recording = self.record(plan, environment)
        trace = trace_from_recording(recording, scaffold=scaffold,
                                     program_name=self.program.name)
        save_trace(path, trace)
        return recording

    def reproduce_from_trace(self, trace_or_path, budget: Optional[ReplayBudget] = None,
                             scenario: str = "",
                             expect_plan: Optional[InstrumentationPlan] = None
                             ) -> ReplayReport:
        """Reproduce a crash from a persisted trace (the developer site).

        Accepts a path or an already-loaded :class:`~repro.trace.Trace`.  The
        matched-binaries assumption is enforced: a trace whose plan
        fingerprint disagrees with *expect_plan* (or whose instrumented
        locations this pipeline's program does not have) is rejected with
        :class:`~repro.trace.TraceFingerprintMismatch`.
        """

        trace = (trace_or_path if isinstance(trace_or_path, Trace)
                 else load_trace(trace_or_path))
        engine = ReplayEngine.from_trace(
            self.program, trace, expect_plan=expect_plan,
            budget=budget or self.config.replay_budget,
            backend=self.config.backend,
            warm_start=self.config.replay_warm_start,
            telemetry=self.config.telemetry_enabled,
            profile_opcodes=self.config.profile_opcodes,
        )
        outcome = engine.reproduce()
        return ReplayReport(method=trace.plan.method, outcome=outcome,
                            scenario=scenario or trace.scenario)

    # -- derived statistics (Tables 4, 7, 8) --------------------------------------------------------------

    def branch_logging_stats(self, plan: InstrumentationPlan,
                             environment: Environment,
                             scenario: str = "") -> BranchLoggingStats:
        """Split the scenario's symbolic branch executions by logged / not logged."""

        profile = self.profile_branch_behavior(environment)
        logged_locations = 0
        logged_executions = 0
        not_logged_locations = 0
        not_logged_executions = 0
        for location, executions in profile.symbolic_executions.items():
            if plan.is_instrumented(location):
                logged_locations += 1
                logged_executions += executions
            else:
                not_logged_locations += 1
                not_logged_executions += executions
        return BranchLoggingStats(
            method=plan.method,
            scenario=scenario or environment.name,
            logged_locations=logged_locations,
            logged_executions=logged_executions,
            not_logged_locations=not_logged_locations,
            not_logged_executions=not_logged_executions,
        )

    # -- end-to-end convenience --------------------------------------------------------------------------

    def end_to_end(self, method: InstrumentationMethod, environment: Environment,
                   analysis: Optional[AnalysisResult] = None,
                   replay_budget: Optional[ReplayBudget] = None,
                   log_syscalls: Optional[bool] = None) -> Tuple[RecordingResult, ReplayReport]:
        """Analyse, instrument, record and reproduce in one call."""

        if analysis is None:
            analysis = self.analyze(environment)
        plan = self.make_plan(method, analysis, log_syscalls=log_syscalls)
        recording = self.record(plan, environment)
        report = self.reproduce(recording, budget=replay_budget)
        return recording, report
