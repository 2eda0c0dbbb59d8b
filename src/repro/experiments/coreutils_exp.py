"""Coreutils experiments: Figure 1, Figure 2 and Table 1 (§5.2)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.concolic.budget import ConcolicBudget
from repro.core.config import PipelineConfig
from repro.core.pipeline import Pipeline
from repro.instrument.methods import InstrumentationMethod
from repro.replay.budget import ReplayBudget
from repro.workloads.coreutils import ALL_PROGRAMS, mkdir

_DEFAULT_BUDGET = ConcolicBudget(max_iterations=20, max_seconds=8)
_REPLAY_BUDGET = ReplayBudget(max_runs=300, max_seconds=30)


def _pipeline_for(module, name: str) -> Pipeline:
    config = PipelineConfig(concolic_budget=_DEFAULT_BUDGET,
                            replay_budget=_REPLAY_BUDGET)
    return Pipeline.from_source(module.SOURCE, name=name, config=config)


def figure1_rows(program: str = "mkdir") -> List[Dict[str, object]]:
    """Figure 1: per-branch-location execution counts (all vs symbolic)."""

    module = ALL_PROGRAMS[program]
    pipeline = _pipeline_for(module, program)
    profile = pipeline.profile_branch_behavior(module.benign_scenario())
    rows = []
    for row in profile.location_stats():
        rows.append({
            "branch_location": row["location"],
            "executions": row["executions"],
            "symbolic_executions": row["symbolic_executions"],
        })
    return rows


def figure2_rows(program: str = "mkdir") -> List[Dict[str, object]]:
    """Figure 2: CPU time of the four configurations, normalised to none."""

    module = ALL_PROGRAMS[program]
    pipeline = _pipeline_for(module, program)
    env = module.benign_scenario()
    analysis = pipeline.analyze(env)
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


def table1_rows(programs: Optional[List[str]] = None,
                methods: Optional[List[InstrumentationMethod]] = None) -> List[Dict[str, object]]:
    """Table 1: time to replay the crash bug of each coreutils program."""

    programs = programs or sorted(ALL_PROGRAMS)
    methods = methods or list(InstrumentationMethod.paper_methods())
    rows = []
    for name in programs:
        module = ALL_PROGRAMS[name]
        pipeline = _pipeline_for(module, name)
        env = module.bug_scenario()
        analysis = pipeline.analyze(env)
        row: Dict[str, object] = {"program": name}
        for method in methods:
            plan = pipeline.make_plan(method, analysis)
            recording = pipeline.record(plan, env)
            report = pipeline.reproduce(recording)
            row[method.value] = (f"{report.replay_seconds:.2f}s"
                                 if report.reproduced else "TIMEOUT")
        rows.append(row)
    return rows
