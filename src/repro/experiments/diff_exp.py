"""Diff experiments: Figure 5, Table 6 and Table 7 (§5.4)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.concolic.budget import ConcolicBudget
from repro.core.config import PipelineConfig
from repro.core.pipeline import Pipeline
from repro.core.results import AnalysisResult
from repro.instrument.methods import InstrumentationMethod
from repro.replay.budget import ReplayBudget
from repro.workloads import diffutil

#: Diff is input-intensive, so (like the paper) the dynamic analysis only
#: reaches low coverage within its budget.
ANALYSIS_BUDGET = ConcolicBudget(max_iterations=4, max_seconds=8, label="LC")
DEFAULT_REPLAY_BUDGET = ReplayBudget(max_runs=500, max_seconds=30)


def make_setup():
    """Pipeline + analysis shared by the diff experiments.

    The analysis runs on a generic pair of files, not on the experiment inputs.
    """

    config = PipelineConfig(concolic_budget=ANALYSIS_BUDGET,
                            replay_budget=DEFAULT_REPLAY_BUDGET)
    pipeline = Pipeline.from_source(diffutil.SOURCE, name="diff", config=config)
    # The analysis workload compares two (near) empty files, so the bounded
    # exploration never reaches the per-character comparison loops — the
    # low-coverage situation the paper reports for diff.
    analysis_env = diffutil.custom_scenario(b"\n", b"\n", name="diff-analysis")
    analysis = pipeline.analyze(analysis_env, ANALYSIS_BUDGET)
    return pipeline, analysis


def figure5_rows(pipeline: Optional[Pipeline] = None,
                 analysis: Optional[AnalysisResult] = None) -> List[Dict[str, object]]:
    """Figure 5: CPU time of the four configurations, normalised to none."""

    if pipeline is None or analysis is None:
        pipeline, analysis = make_setup()
    env = diffutil.experiment_2()
    rows = []
    for method in InstrumentationMethod.paper_methods():
        plan = pipeline.make_plan(method, analysis)
        recording = pipeline.record(plan, env)
        rows.append({
            "configuration": method.value,
            "cpu_time_percent": round(recording.overhead.cpu_time_percent, 1),
            "instrumented_branch_locations": plan.instrumented_count(),
        })
    return rows


def _path_equivalent(pipeline: Pipeline, recording, outcome) -> bool:
    """Out-of-band check: does the reconstructed input replay the same path?

    The engine itself can only compare against what the bug report contains;
    a sparsely instrumented plan (diff's *dynamic* configuration) may leave
    the log too weak to discriminate, so its "reproduction" can follow a
    different path through the unlogged comparison loops.  Like the paper's
    authors, the experiment verifies reproductions against the original run
    (same step count and branch executions), which the developer in the
    deployed scenario cannot do — a failed check is the paper's ∞ entry.
    """

    if not outcome.reproduced:
        return False
    from repro.interp.backend import create_backend
    from repro.interp.inputs import ExecutionMode, InputBinder
    from repro.interp.interpreter import ExecutionConfig

    scaffold = recording.environment.scaffold()
    provider = None
    if recording.plan.log_syscalls:
        cursor = recording.syscall_log.cursor()

        def provider(kind, _cursor=cursor):
            return _cursor.next_result(kind)

    executor = create_backend(
        pipeline.program,
        kernel=scaffold.make_kernel(),
        binder=InputBinder(mode=ExecutionMode.REPLAY,
                           overrides=dict(outcome.found_input)),
        config=ExecutionConfig(mode=ExecutionMode.REPLAY,
                               backend=pipeline.config.backend,
                               syscall_result_provider=provider),
    )
    result = executor.run(scaffold.argv)
    original = recording.execution
    return (result.steps == original.steps
            and result.branch_executions == original.branch_executions)


def table6_rows(pipeline: Optional[Pipeline] = None,
                analysis: Optional[AnalysisResult] = None,
                replay_budget: Optional[ReplayBudget] = None) -> List[Dict[str, object]]:
    """Table 6: time needed to reproduce the two diff executions.

    ``TIMEOUT`` means the search exhausted its budget; ``NOT-EQUIV`` means it
    proposed an input whose execution is not path-equivalent to the recorded
    one (both correspond to the paper's ∞ entries for *dynamic*).
    """

    if pipeline is None or analysis is None:
        pipeline, analysis = make_setup()
    replay_budget = replay_budget or DEFAULT_REPLAY_BUDGET
    environments = {"exp1": diffutil.experiment_1(), "exp2": diffutil.experiment_2()}
    rows = []
    for method in InstrumentationMethod.paper_methods():
        row: Dict[str, object] = {"configuration": method.value}
        for label, env in environments.items():
            plan = pipeline.make_plan(method, analysis)
            recording = pipeline.record(plan, env)
            report = pipeline.reproduce(recording, budget=replay_budget, scenario=label)
            if not report.reproduced:
                row[label] = "TIMEOUT"
            elif not _path_equivalent(pipeline, recording, report.outcome):
                row[label] = "NOT-EQUIV"
            else:
                row[label] = f"{report.replay_seconds:.1f}s"
        rows.append(row)
    return rows


def table7_rows(pipeline: Optional[Pipeline] = None,
                analysis: Optional[AnalysisResult] = None) -> List[Dict[str, object]]:
    """Table 7: symbolic branch locations/executions logged vs not logged."""

    if pipeline is None or analysis is None:
        pipeline, analysis = make_setup()
    environments = {"exp1": diffutil.experiment_1(), "exp2": diffutil.experiment_2()}
    rows = []
    for label, env in environments.items():
        for method in InstrumentationMethod.paper_methods():
            plan = pipeline.make_plan(method, analysis)
            stats = pipeline.branch_logging_stats(plan, env, scenario=label)
            rows.append({
                "experiment": label,
                "configuration": method.value,
                "logged (locations/executions)":
                    f"{stats.logged_locations} / {stats.logged_executions}",
                "not logged (locations/executions)":
                    f"{stats.not_logged_locations} / {stats.not_logged_executions}",
            })
    return rows
